#include "src/virtue/vfs/venus_mount.h"

namespace itc::virtue::vfs {

FileInfo::Type FromViceType(vice::VnodeType t) {
  switch (t) {
    case vice::VnodeType::kFile: return FileInfo::Type::kFile;
    case vice::VnodeType::kDirectory: return FileInfo::Type::kDirectory;
    case vice::VnodeType::kSymlink: return FileInfo::Type::kSymlink;
  }
  return FileInfo::Type::kFile;
}

VenusMount::VenusMount(venus::Venus* venus, unixfs::FileSystem* cache_fs, sim::Clock* clock,
                       const sim::CostModel& cost)
    : venus_(venus), cache_fs_(cache_fs), clock_(clock), cost_(cost) {}

Result<MountedOpen> VenusMount::Open(const std::string& rel, uint32_t flags) {
  const bool writable = (flags & kWrite) != 0;
  ASSIGN_OR_RETURN(venus::Venus::OpenResult open,
                   venus_->Open(rel, writable, (flags & kCreate) != 0));
  clock_->Advance(cost_.local_open);  // opening the cached copy

  MountedOpen mo;
  if (writable && (flags & kTruncate) != 0) {
    RETURN_IF_ERROR(cache_fs_->Truncate(open.inode, 0));
    mo.dirty = true;
  }
  mo.token = next_token_++;
  open_[mo.token] = OpenToken{open.fid, open.inode};
  return mo;
}

Status VenusMount::Close(uint64_t token, bool dirty) {
  auto it = open_.find(token);
  if (it == open_.end()) return Status::kBadDescriptor;
  const Fid fid = it->second.fid;
  open_.erase(it);
  return venus_->Close(fid, dirty);
}

Result<Bytes> VenusMount::ReadAt(uint64_t token, uint64_t offset, uint64_t length) {
  auto it = open_.find(token);
  if (it == open_.end()) return Status::kBadDescriptor;
  ASSIGN_OR_RETURN(Bytes data, cache_fs_->ReadAt(it->second.inode, offset, length));
  clock_->Advance(cost_.LocalIoTime(data.size()));
  return data;
}

Status VenusMount::WriteAt(uint64_t token, uint64_t offset, const Bytes& data) {
  auto it = open_.find(token);
  if (it == open_.end()) return Status::kBadDescriptor;
  RETURN_IF_ERROR(cache_fs_->WriteAt(it->second.inode, offset, data));
  clock_->Advance(cost_.LocalIoTime(data.size()));
  return Status::kOk;
}

Result<FileInfo> VenusMount::Stat(const std::string& rel) {
  ASSIGN_OR_RETURN(vice::VnodeStatus st, venus_->Stat(rel));
  FileInfo info;
  info.type = FromViceType(st.type);
  info.size = st.length;
  info.mtime = st.mtime;
  info.mode = st.mode;
  info.owner = st.owner;
  return info;
}

Result<std::vector<std::string>> VenusMount::List(const std::string& rel) {
  ASSIGN_OR_RETURN(auto entries, venus_->ReadDir(rel));
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const auto& [name, item] : entries) names.push_back(name);
  return names;
}

Status VenusMount::MkDir(const std::string& rel) { return venus_->MkDir(rel); }

Status VenusMount::Remove(const std::string& rel) { return venus_->Remove(rel); }

Status VenusMount::RmDir(const std::string& rel) { return venus_->RmDir(rel); }

Status VenusMount::Rename(const std::string& from_rel, const std::string& to_rel) {
  return venus_->Rename(from_rel, to_rel);
}

Status VenusMount::Symlink(const std::string& target, const std::string& rel) {
  return venus_->Symlink(target, rel);
}

Result<std::string> VenusMount::ReadLink(const std::string& rel) {
  return venus_->ReadLink(rel);
}

Status VenusMount::Chmod(const std::string& rel, uint16_t mode) {
  return venus_->SetMode(rel, mode);
}

}  // namespace itc::virtue::vfs
