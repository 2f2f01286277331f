// Local mount: a unixfs::FileSystem behind the Mount interface. This is
// file classes 1 and 3 of Section 3.1 — temporary files and data the owner
// will not entrust to Vice — plus the boot files. Costs are the local-disk
// charges the workstation always paid (local_open, local_create, ...).

#ifndef SRC_VIRTUE_VFS_UNIXFS_MOUNT_H_
#define SRC_VIRTUE_VFS_UNIXFS_MOUNT_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/unixfs/file_system.h"
#include "src/virtue/vfs/mount.h"

namespace itc::virtue::vfs {

class UnixfsMount : public Mount {
 public:
  // `user` supplies the owner for created files (the logged-in user changes
  // over the workstation's lifetime, so it is a callback, not a value).
  UnixfsMount(unixfs::FileSystem* fs, sim::Clock* clock, const sim::CostModel& cost,
              std::function<UserId()> user, std::string name = "unixfs");

  std::string_view name() const override { return name_; }
  bool shared() const override { return false; }
  bool resolves_locally() const override { return true; }

  [[nodiscard]] Result<MountedOpen> Open(const std::string& rel, uint32_t flags) override;
  [[nodiscard]] Status Close(uint64_t token, bool dirty) override;
  [[nodiscard]] Result<Bytes> ReadAt(uint64_t token, uint64_t offset, uint64_t length) override;
  [[nodiscard]] Status WriteAt(uint64_t token, uint64_t offset, const Bytes& data) override;

  [[nodiscard]] Result<FileInfo> Stat(const std::string& rel) override;
  [[nodiscard]] Result<std::vector<std::string>> List(const std::string& rel) override;
  [[nodiscard]] Status MkDir(const std::string& rel) override;
  [[nodiscard]] Status Remove(const std::string& rel) override;
  [[nodiscard]] Status RmDir(const std::string& rel) override;
  [[nodiscard]] Status Rename(const std::string& from_rel, const std::string& to_rel) override;
  [[nodiscard]] Status Symlink(const std::string& target, const std::string& rel) override;
  [[nodiscard]] Result<std::string> ReadLink(const std::string& rel) override;
  [[nodiscard]] Status Chmod(const std::string& rel, uint16_t mode) override;

  [[nodiscard]] Result<FileInfo> LStat(std::string_view rel) override;
  [[nodiscard]] Result<std::string> ReadTarget(std::string_view rel) override;

 private:
  unixfs::FileSystem* fs_;
  sim::Clock* clock_;
  sim::CostModel cost_;
  std::function<UserId()> user_;
  std::string name_;
};

// Shared by the local and Venus mounts (the cached copy is a unixfs file).
FileInfo::Type FromUnixType(unixfs::FileType t);

}  // namespace itc::virtue::vfs

#endif  // SRC_VIRTUE_VFS_UNIXFS_MOUNT_H_
