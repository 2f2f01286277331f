// Path resolution against a mount table.
//
// This is the logic that used to live in Workstation::Classify as a
// hard-coded "/vice means shared" string test. The resolver walks a
// workstation-absolute path component by component, following symlinks of
// locally-resolving mounts (the Figure 3-2 /bin -> /vice/unix/<arch>/bin
// indirection is just such a link), and stops at the first component owned
// by a non-root mount — from there ownership of the remaining path is
// textual, so a deeper mount prefix shadows a shallower one.

#ifndef SRC_VIRTUE_VFS_RESOLVER_H_
#define SRC_VIRTUE_VFS_RESOLVER_H_

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/virtue/vfs/mount.h"
#include "src/virtue/vfs/mount_table.h"

namespace itc::virtue::vfs {

struct ResolvedPath {
  Mount* mount = nullptr;
  std::string prefix;  // mount prefix that owns the path
  std::string rel;     // mount-relative remainder ("/" at the mount root)
};

// Maps `path` to the mount owning it plus the mount-relative remainder.
// Missing trailing components are allowed (creation paths). Trailing
// symlinks are followed, as the old classification did. `symlink_budget`
// accumulates symlink expansions across calls so that chains which bounce
// between mounts (via kSymlinkEscape re-entries) still terminate at
// kMaxSymlinkDepth; callers start it at 0 per logical operation.
[[nodiscard]] Result<ResolvedPath> ResolvePath(const MountTable& table, std::string_view path,
                                               int* symlink_budget);

}  // namespace itc::virtue::vfs

#endif  // SRC_VIRTUE_VFS_RESOLVER_H_
