// The VFS switch: one Unix-style descriptor API dispatched over a mount
// table of interchangeable backends (local unixfs, Venus whole-file
// caching, remote-open). Owns the mounts, the descriptor table, and the
// cross-mount symlink protocol: when a shared mount's internal traversal
// meets an absolute link that leaves it (kSymlinkEscape), the switch
// collects the rewritten workstation path and re-resolves, with one
// depth budget bounding the whole chain.

#ifndef SRC_VIRTUE_VFS_SWITCH_H_
#define SRC_VIRTUE_VFS_SWITCH_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/path.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/virtue/vfs/mount.h"
#include "src/virtue/vfs/mount_table.h"
#include "src/virtue/vfs/resolver.h"

namespace itc::virtue::vfs {

class Switch {
 public:
  Switch() = default;
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  // Attaches a backend at `prefix` (see MountTable::Add for legal forms).
  // The switch takes ownership.
  [[nodiscard]] Status AddMount(const std::string& prefix, std::unique_ptr<Mount> mount);
  // Detaches and destroys the mount at exactly `prefix`; anything it
  // shadowed becomes reachable again. Refused (kNotEmpty) while files are
  // open on it.
  [[nodiscard]] Status RemoveMount(const std::string& prefix);
  const MountTable& table() const { return table_; }

  // Which mount owns `path` (follows local symlinks; no cost charged).
  [[nodiscard]] Result<ResolvedPath> Resolve(const std::string& path) const;
  // True if `path` resolves onto a shared mount.
  bool IsShared(const std::string& path) const;

  // --- Unix file system interface -------------------------------------------
  [[nodiscard]] Result<int> Open(const std::string& path, uint32_t flags);
  [[nodiscard]] Result<Bytes> Read(int fd, uint64_t length);
  [[nodiscard]] Status Write(int fd, const Bytes& data);
  [[nodiscard]] Result<uint64_t> Seek(int fd, uint64_t offset);
  [[nodiscard]] Status Close(int fd);

  [[nodiscard]] Result<FileInfo> Stat(const std::string& path);
  [[nodiscard]] Result<std::vector<std::string>> ReadDir(const std::string& path);
  [[nodiscard]] Status MkDir(const std::string& path);
  [[nodiscard]] Status Unlink(const std::string& path);
  [[nodiscard]] Status RmDir(const std::string& path);
  [[nodiscard]] Status Rename(const std::string& from, const std::string& to);
  [[nodiscard]] Status Symlink(const std::string& target, const std::string& link_path);
  [[nodiscard]] Result<std::string> ReadLink(const std::string& path);
  [[nodiscard]] Status Chmod(const std::string& path, uint16_t mode);

  // Whole-file conveniences (open/read-or-write/close in one call).
  [[nodiscard]] Result<Bytes> ReadWholeFile(const std::string& path);
  [[nodiscard]] Status WriteWholeFile(const std::string& path, const Bytes& data);

  size_t open_file_count() const { return fds_.size(); }

  // Escape predicate for shared mounts (see Venus::set_escape_predicate):
  // true when an absolute symlink target read inside such a mount names a
  // workstation path — its longest mount-prefix is a non-root mount, or its
  // first component exists in the root mount.
  bool EscapesSharedSpace(const std::string& target) const;

 private:
  struct OpenFd {
    Mount* mount = nullptr;
    uint64_t token = 0;
    bool writable = false;
    bool dirty = false;
    uint64_t offset = 0;
  };

  [[nodiscard]] static Status StatusOf(Status s) { return s; }
  template <typename T>
  [[nodiscard]] static Status StatusOf(const Result<T>& r) {
    return r.status();
  }

  // Resolves `path` and applies `op` on the owning mount; when the mount
  // reports that resolution escaped onto another mount, re-resolves the
  // rewritten path and retries, charging escapes against the same symlink
  // budget the resolver uses.
  template <typename Op>
  auto DispatchPath(const std::string& path, Op&& op)
      -> decltype(op(std::declval<Mount&>(), std::string())) {
    std::string escaped;  // the rewritten path of the last escape
    std::string_view cur = path;
    int budget = 0;
    for (;;) {
      auto r = ResolvePath(table_, cur, &budget);
      if (!r.ok()) return r.status();
      auto result = op(*r->mount, r->rel);
      if (StatusOf(result) != Status::kSymlinkEscape) return result;
      escaped = r->mount->TakeEscape();
      if (escaped.empty()) return Status::kSymlinkLoop;
      cur = escaped;
      if (++budget > kMaxSymlinkDepth) return Status::kSymlinkLoop;
    }
  }

  MountTable table_;
  std::map<std::string, std::unique_ptr<Mount>> owned_;
  std::map<int, OpenFd> fds_;
  int next_fd_ = 3;
};

}  // namespace itc::virtue::vfs

#endif  // SRC_VIRTUE_VFS_SWITCH_H_
