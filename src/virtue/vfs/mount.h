// The vnode-style backend contract of the Virtue VFS switch.
//
// The paper promises "other than performance, there is no difference between
// accessing a local file and a file in the shared name space" (§2.3). The
// switch makes that literal: every file-access path on the workstation —
// the local Unix file system, the whole-file-caching Venus, and the
// remote-open comparator of Section 5 — is a Mount, and the descriptor API
// dispatches through this one interface after the resolver has mapped a
// workstation path onto (mount, mount-relative remainder).

#ifndef SRC_VIRTUE_VFS_MOUNT_H_
#define SRC_VIRTUE_VFS_MOUNT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/types.h"

namespace itc::virtue::vfs {

// open() flags (Unix-style).
enum OpenFlags : uint32_t {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kCreate = 1u << 2,
  kTruncate = 1u << 3,
};

// Unified stat result across every mount type. `shared` is stamped by the
// switch from the owning mount's shared(); backends may leave it false.
struct FileInfo {
  enum class Type { kFile, kDirectory, kSymlink };
  Type type = Type::kFile;
  uint64_t size = 0;
  SimTime mtime = 0;
  uint16_t mode = 0;
  UserId owner = kAnonymousUser;
  bool shared = false;  // lives in a name space other workstations also see
};

// Result of Mount::Open: an opaque per-mount token for the open file, plus
// whether the open itself already dirtied the backing copy (truncate-on-open
// of a cached file must be stored back even if nothing else is written).
struct MountedOpen {
  uint64_t token = 0;
  bool dirty = false;
};

// One backend of the switch. All paths handed to a Mount are
// mount-relative and absolute-style: "/" names the mount root. Each backend
// charges its own simulation costs (local disk time, RPC round trips), so
// the switch adds none of its own — mounting a different backend at the
// same prefix is exactly the paper's "same workload, different mount".
class Mount {
 public:
  virtual ~Mount() = default;

  virtual std::string_view name() const = 0;
  virtual bool shared() const = 0;
  // True when the resolver may inspect this mount's symlinks itself with
  // LStat/ReadTarget (local unixfs-backed mounts). Mounts that resolve
  // internally signal boundary crossings with Status::kSymlinkEscape and
  // TakeEscape() instead.
  virtual bool resolves_locally() const { return false; }

  [[nodiscard]] virtual Result<MountedOpen> Open(const std::string& rel, uint32_t flags) = 0;
  [[nodiscard]] virtual Status Close(uint64_t token, bool dirty) = 0;
  [[nodiscard]] virtual Result<Bytes> ReadAt(uint64_t token, uint64_t offset,
                                             uint64_t length) = 0;
  [[nodiscard]] virtual Status WriteAt(uint64_t token, uint64_t offset, const Bytes& data) = 0;

  [[nodiscard]] virtual Result<FileInfo> Stat(const std::string& rel) = 0;
  [[nodiscard]] virtual Result<std::vector<std::string>> List(const std::string& rel) = 0;
  [[nodiscard]] virtual Status MkDir(const std::string& rel) = 0;
  [[nodiscard]] virtual Status Remove(const std::string& rel) = 0;
  [[nodiscard]] virtual Status RmDir(const std::string& rel) = 0;
  // Both names are on this mount; the switch rejects cross-mount renames
  // with kCrossVolume before dispatch (the EXDEV of this system).
  [[nodiscard]] virtual Status Rename(const std::string& from_rel,
                                      const std::string& to_rel) = 0;
  [[nodiscard]] virtual Status Symlink(const std::string& target, const std::string& rel) = 0;
  [[nodiscard]] virtual Result<std::string> ReadLink(const std::string& rel) = 0;
  [[nodiscard]] virtual Status Chmod(const std::string& rel, uint16_t mode) = 0;

  // --- Resolver hooks --------------------------------------------------------
  // Uncharged lstat/readlink used by the resolver while walking component
  // prefixes of resolves_locally() mounts; others keep the defaults.
  [[nodiscard]] virtual Result<FileInfo> LStat(std::string_view rel) {
    (void)rel;
    return Status::kNotSupported;
  }
  [[nodiscard]] virtual Result<std::string> ReadTarget(std::string_view rel) {
    (void)rel;
    return Status::kNotSupported;
  }
  // After an operation failed with kSymlinkEscape: the rewritten
  // workstation-absolute path that resolution escaped to (consumed).
  virtual std::string TakeEscape() { return {}; }
};

}  // namespace itc::virtue::vfs

#endif  // SRC_VIRTUE_VFS_MOUNT_H_
