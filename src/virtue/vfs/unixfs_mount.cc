#include "src/virtue/vfs/unixfs_mount.h"

#include <utility>

namespace itc::virtue::vfs {

FileInfo::Type FromUnixType(unixfs::FileType t) {
  switch (t) {
    case unixfs::FileType::kRegular: return FileInfo::Type::kFile;
    case unixfs::FileType::kDirectory: return FileInfo::Type::kDirectory;
    case unixfs::FileType::kSymlink: return FileInfo::Type::kSymlink;
  }
  return FileInfo::Type::kFile;
}

namespace {

FileInfo FromUnixStat(const unixfs::StatInfo& st) {
  FileInfo info;
  info.type = FromUnixType(st.type);
  info.size = st.size;
  info.mtime = st.mtime;
  info.mode = st.mode;
  info.owner = st.owner;
  return info;
}

}  // namespace

UnixfsMount::UnixfsMount(unixfs::FileSystem* fs, sim::Clock* clock, const sim::CostModel& cost,
                         std::function<UserId()> user, std::string name)
    : fs_(fs), clock_(clock), cost_(cost), user_(std::move(user)), name_(std::move(name)) {}

Result<MountedOpen> UnixfsMount::Open(const std::string& rel, uint32_t flags) {
  const bool writable = (flags & kWrite) != 0;
  unixfs::InodeNum inode = 0;

  auto resolved = fs_->Resolve(rel);
  if (!resolved.ok()) {
    if (resolved.status() != Status::kNotFound || (flags & kCreate) == 0) {
      return resolved.status();
    }
    clock_->Advance(cost_.local_create);
    ASSIGN_OR_RETURN(inode, fs_->Create(rel, unixfs::kDefaultFileMode, user_()));
  } else {
    inode = *resolved;
    ASSIGN_OR_RETURN(unixfs::StatInfo st, fs_->StatInode(inode));
    if (st.type == unixfs::FileType::kDirectory) return Status::kIsDirectory;
    if (writable && (flags & kTruncate) != 0) {
      RETURN_IF_ERROR(fs_->Truncate(inode, 0));
    }
  }
  clock_->Advance(cost_.local_open);
  return MountedOpen{inode, false};
}

Status UnixfsMount::Close(uint64_t token, bool dirty) {
  (void)token;
  (void)dirty;  // local files have no store-back
  return Status::kOk;
}

Result<Bytes> UnixfsMount::ReadAt(uint64_t token, uint64_t offset, uint64_t length) {
  ASSIGN_OR_RETURN(Bytes data, fs_->ReadAt(token, offset, length));
  clock_->Advance(cost_.LocalIoTime(data.size()));
  return data;
}

Status UnixfsMount::WriteAt(uint64_t token, uint64_t offset, const Bytes& data) {
  RETURN_IF_ERROR(fs_->WriteAt(token, offset, data));
  clock_->Advance(cost_.LocalIoTime(data.size()));
  return Status::kOk;
}

Result<FileInfo> UnixfsMount::Stat(const std::string& rel) {
  clock_->Advance(cost_.local_stat);
  ASSIGN_OR_RETURN(unixfs::StatInfo st, fs_->Stat(rel));
  return FromUnixStat(st);
}

Result<std::vector<std::string>> UnixfsMount::List(const std::string& rel) {
  clock_->Advance(cost_.local_stat);
  ASSIGN_OR_RETURN(auto entries, fs_->ReadDir(rel));
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const auto& e : entries) names.push_back(e.name);
  return names;
}

Status UnixfsMount::MkDir(const std::string& rel) {
  clock_->Advance(cost_.local_mkdir);
  return fs_->MkDir(rel, unixfs::kDefaultDirMode, user_());
}

Status UnixfsMount::Remove(const std::string& rel) {
  clock_->Advance(cost_.local_open);
  return fs_->Unlink(rel);
}

Status UnixfsMount::RmDir(const std::string& rel) {
  clock_->Advance(cost_.local_open);
  return fs_->RmDir(rel);
}

Status UnixfsMount::Rename(const std::string& from_rel, const std::string& to_rel) {
  clock_->Advance(cost_.local_open);
  return fs_->Rename(from_rel, to_rel);
}

Status UnixfsMount::Symlink(const std::string& target, const std::string& rel) {
  clock_->Advance(cost_.local_create);
  return fs_->Symlink(target, rel);
}

Result<std::string> UnixfsMount::ReadLink(const std::string& rel) {
  clock_->Advance(cost_.local_stat);
  return fs_->ReadLink(rel);
}

Status UnixfsMount::Chmod(const std::string& rel, uint16_t mode) {
  clock_->Advance(cost_.local_stat);
  return fs_->Chmod(rel, mode);
}

Result<FileInfo> UnixfsMount::LStat(std::string_view rel) {
  ASSIGN_OR_RETURN(unixfs::StatInfo st, fs_->LStat(rel));
  return FromUnixStat(st);
}

Result<std::string> UnixfsMount::ReadTarget(std::string_view rel) {
  return fs_->ReadLink(rel);
}

}  // namespace itc::virtue::vfs
