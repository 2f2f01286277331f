// The mount table: normalized absolute prefixes mapped to Mount backends,
// looked up by longest matching prefix on component boundaries. Mount
// shadowing falls out of longest-prefix: a mount at /vice/pc owns
// everything under it even though /vice is also mounted, and removing it
// uncovers /vice again.

#ifndef SRC_VIRTUE_VFS_MOUNT_TABLE_H_
#define SRC_VIRTUE_VFS_MOUNT_TABLE_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/virtue/vfs/mount.h"

namespace itc::virtue::vfs {

class MountTable {
 public:
  // Attaches `mount` at `prefix`: "/" or an absolute path with valid
  // components (no ".", "..", empty, or trailing slash). One mount per
  // prefix; nested prefixes are how shadowing is expressed.
  [[nodiscard]] Status Add(const std::string& prefix, Mount* mount);
  [[nodiscard]] Status Remove(const std::string& prefix);

  struct Hit {
    Mount* mount = nullptr;
    std::string_view prefix;  // the table's own key: valid until it changes
  };
  // The mount whose prefix is the longest path-prefix of `path`, on
  // component boundaries ("/vice" does not own "/viceX"). Empty when no
  // mount covers the path (i.e. nothing is mounted at "/").
  std::optional<Hit> Match(std::string_view path) const;

  Mount* AtExactly(const std::string& prefix) const;
  // (prefix, mount) pairs in prefix order.
  const std::map<std::string, Mount*>& entries() const { return mounts_; }
  size_t size() const { return mounts_.size(); }

 private:
  std::map<std::string, Mount*> mounts_;
};

// The tail of `path` below `prefix` as a mount-relative absolute path:
// ("/vice/usr/x", "/vice") -> "/usr/x"; ("/vice", "/vice") -> "/";
// (p, "/") -> p. `prefix` must be a path-prefix of `path`.
std::string MountRelative(std::string_view path, std::string_view prefix);

}  // namespace itc::virtue::vfs

#endif  // SRC_VIRTUE_VFS_MOUNT_TABLE_H_
