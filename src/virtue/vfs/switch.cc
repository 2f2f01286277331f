#include "src/virtue/vfs/switch.h"

#include <algorithm>

#include "src/common/logging.h"

namespace itc::virtue::vfs {

namespace {
constexpr uint64_t kReadAll = ~0ull >> 2;
}  // namespace

Status Switch::AddMount(const std::string& prefix, std::unique_ptr<Mount> mount) {
  RETURN_IF_ERROR(table_.Add(prefix, mount.get()));
  owned_[prefix] = std::move(mount);
  return Status::kOk;
}

Status Switch::RemoveMount(const std::string& prefix) {
  Mount* mount = table_.AtExactly(prefix);
  if (mount == nullptr) return Status::kNotFound;
  for (const auto& [fd, of] : fds_) {
    if (of.mount == mount) return Status::kNotEmpty;
  }
  RETURN_IF_ERROR(table_.Remove(prefix));
  owned_.erase(prefix);
  return Status::kOk;
}

Result<ResolvedPath> Switch::Resolve(const std::string& path) const {
  int budget = 0;
  return ResolvePath(table_, path, &budget);
}

bool Switch::IsShared(const std::string& path) const {
  auto r = Resolve(path);
  return r.ok() && r->mount->shared();
}

bool Switch::EscapesSharedSpace(const std::string& target) const {
  if (target.empty() || target.front() != '/') return false;
  auto hit = table_.Match(target);
  if (!hit) return false;
  if (hit->prefix != "/") return true;
  if (!hit->mount->resolves_locally()) return false;
  std::string_view first;
  if (!PathCursor(target).Next(&first)) return true;  // "/" is the workstation root itself
  return hit->mount->LStat("/" + std::string(first)).ok();
}

// --- Descriptor API ----------------------------------------------------------

Result<int> Switch::Open(const std::string& path, uint32_t flags) {
  auto opened = DispatchPath(
      path, [flags](Mount& m, const std::string& rel) -> Result<std::pair<Mount*, MountedOpen>> {
        ASSIGN_OR_RETURN(MountedOpen mo, m.Open(rel, flags));
        return std::make_pair(&m, mo);
      });
  if (!opened.ok()) return opened.status();

  OpenFd of;
  of.mount = opened->first;
  of.token = opened->second.token;
  of.writable = (flags & kWrite) != 0;
  of.dirty = opened->second.dirty;
  const int fd = next_fd_++;
  fds_[fd] = of;
  return fd;
}

Result<Bytes> Switch::Read(int fd, uint64_t length) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Status::kBadDescriptor;
  OpenFd& of = it->second;
  ASSIGN_OR_RETURN(Bytes data, of.mount->ReadAt(of.token, of.offset, length));
  of.offset += data.size();
  return data;
}

Status Switch::Write(int fd, const Bytes& data) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Status::kBadDescriptor;
  OpenFd& of = it->second;
  if (!of.writable) return Status::kPermissionDenied;
  RETURN_IF_ERROR(of.mount->WriteAt(of.token, of.offset, data));
  of.offset += data.size();
  of.dirty = true;
  return Status::kOk;
}

Result<uint64_t> Switch::Seek(int fd, uint64_t offset) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Status::kBadDescriptor;
  it->second.offset = offset;
  return offset;
}

Status Switch::Close(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Status::kBadDescriptor;
  const OpenFd of = it->second;
  fds_.erase(it);
  return of.mount->Close(of.token, of.dirty);
}

// --- Metadata / name space ---------------------------------------------------

Result<FileInfo> Switch::Stat(const std::string& path) {
  return DispatchPath(path, [](Mount& m, const std::string& rel) -> Result<FileInfo> {
    ASSIGN_OR_RETURN(FileInfo info, m.Stat(rel));
    info.shared = m.shared();
    return info;
  });
}

Result<std::vector<std::string>> Switch::ReadDir(const std::string& path) {
  ASSIGN_OR_RETURN(std::vector<std::string> names,
                   DispatchPath(path, [](Mount& m, const std::string& rel) {
                     return m.List(rel);
                   }));
  // Mount points appear in their parent directory's listing, Unix-style: a
  // mount at /vice shows up as "vice" in ReadDir("/") even when the backend
  // owning "/" has no such entry. Listings arrive sorted from every backend
  // here, so a listing is sorted only when an appended name (or the
  // backend) left it out of order.
  std::string_view dir = path;
  while (dir.size() > 1 && dir.back() == '/') dir.remove_suffix(1);
  for (const auto& [prefix, mount] : table_.entries()) {
    (void)mount;
    if (prefix == "/" || Dirname(prefix) != dir) continue;
    const std::string_view leaf = Basename(prefix);
    if (std::find(names.begin(), names.end(), leaf) == names.end()) names.emplace_back(leaf);
  }
  if (!std::is_sorted(names.begin(), names.end())) std::sort(names.begin(), names.end());
  return names;
}

Status Switch::MkDir(const std::string& path) {
  return DispatchPath(path, [](Mount& m, const std::string& rel) { return m.MkDir(rel); });
}

Status Switch::Unlink(const std::string& path) {
  return DispatchPath(path, [](Mount& m, const std::string& rel) { return m.Remove(rel); });
}

Status Switch::RmDir(const std::string& path) {
  return DispatchPath(path, [](Mount& m, const std::string& rel) { return m.RmDir(rel); });
}

Status Switch::Rename(const std::string& from, const std::string& to) {
  int budget = 0;
  ASSIGN_OR_RETURN(ResolvedPath src, ResolvePath(table_, from, &budget));
  ASSIGN_OR_RETURN(ResolvedPath dst, ResolvePath(table_, to, &budget));
  if (src.mount != dst.mount) return Status::kCrossVolume;
  const Status s = src.mount->Rename(src.rel, dst.rel);
  if (s == Status::kSymlinkEscape) {
    // An intermediate link of one of the names leads onto another mount:
    // cross-device by definition, like rename(2)'s EXDEV.
    (void)src.mount->TakeEscape();
    return Status::kCrossVolume;
  }
  return s;
}

Status Switch::Symlink(const std::string& target, const std::string& link_path) {
  return DispatchPath(
      link_path, [&target](Mount& m, const std::string& rel) { return m.Symlink(target, rel); });
}

Result<std::string> Switch::ReadLink(const std::string& path) {
  return DispatchPath(path, [](Mount& m, const std::string& rel) { return m.ReadLink(rel); });
}

Status Switch::Chmod(const std::string& path, uint16_t mode) {
  return DispatchPath(path,
                      [mode](Mount& m, const std::string& rel) { return m.Chmod(rel, mode); });
}

// --- Whole-file conveniences -------------------------------------------------

Result<Bytes> Switch::ReadWholeFile(const std::string& path) {
  ASSIGN_OR_RETURN(int fd, Open(path, kRead));
  auto data = Read(fd, kReadAll);
  const Status c = Close(fd);
  if (data.ok() && c != Status::kOk) return c;
  return data;
}

Status Switch::WriteWholeFile(const std::string& path, const Bytes& data) {
  Status result = Status::kOk;
  // A close-time store can discover the name was rebound under a trusted
  // cache entry (e.g. a leased directory that outlived a server restart):
  // the store comes back kStaleFid, the dead mapping is dropped, and one
  // retry re-resolves the name — usually into the create path.
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto fd = Open(path, kWrite | kCreate | kTruncate);
    if (!fd.ok()) {
      result = fd.status();
    } else {
      const Status s = Write(*fd, data);
      const Status c = Close(*fd);
      result = s != Status::kOk ? s : c;
    }
    if (result != Status::kStaleFid) break;
  }
  return result;
}

}  // namespace itc::virtue::vfs
