#include "src/venus/file_cache.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/path.h"

namespace itc::venus {

FileCache::FileCache(unixfs::FileSystem* local_fs, std::string cache_dir,
                     const VenusConfig& config)
    : local_fs_(local_fs), cache_dir_(std::move(cache_dir)), config_(config) {
  ITC_CHECK(local_fs_ != nullptr);
  ITC_CHECK(local_fs_->MkDirAll(cache_dir_) == Status::kOk);
  auto dir = local_fs_->Resolve(cache_dir_);
  ITC_CHECK(dir.ok());
  cache_dir_inode_ = *dir;
}

std::string FileCache::PathFor(const Fid& fid) const {
  return PathConcat(cache_dir_, fid.ToString());
}

CacheEntry* FileCache::Find(const Fid& fid) {
  auto it = entries_.find(fid);
  return it == entries_.end() ? nullptr : &it->second;
}

const CacheEntry* FileCache::Find(const Fid& fid) const {
  auto it = entries_.find(fid);
  return it == entries_.end() ? nullptr : &it->second;
}

CacheEntry& FileCache::PutStatus(const Fid& fid, const vice::VnodeStatus& status) {
  CacheEntry& e = entries_[fid];
  e.status = status;
  e.valid = true;
  return e;
}

CacheEntry& FileCache::InstallData(const Fid& fid, const vice::VnodeStatus& status,
                                   content::Ref data) {
  CacheEntry& e = entries_[fid];
  if (!e.has_data) data_entries_ += 1;
  data_bytes_ -= e.accounted_bytes;
  e.status = status;
  e.valid = true;
  e.has_data = true;
  // A fetch replaces the local copy wholesale; any (erroneously surviving)
  // dirty mark would make FlushDirty re-store the server's own bytes.
  e.dirty = false;
  e.accounted_bytes = data.size();
  e.dir_index = status.type == vice::VnodeType::kDirectory ? vice::DirIndex::Of(data.Buffer())
                                                           : nullptr;
  if (e.inode == 0) {
    auto created = local_fs_->CreateAt(cache_dir_inode_, fid.ToString());
    ITC_CHECK(created.ok());
    e.inode = *created;
  }
  ITC_CHECK(local_fs_->WriteFileByInode(e.inode, std::move(data)) == Status::kOk);
  data_bytes_ += e.accounted_bytes;
  stats_.insertions += 1;
  return e;
}

Result<Bytes> FileCache::ReadData(const Fid& fid) const {
  const CacheEntry* e = Find(fid);
  if (e == nullptr || !e->has_data) return Status::kNotFound;
  return local_fs_->ReadFileByInode(e->inode);
}

Result<content::Ref> FileCache::ReadRef(const Fid& fid) const {
  const CacheEntry* e = Find(fid);
  if (e == nullptr || !e->has_data) return Status::kNotFound;
  return local_fs_->ReadRefByInode(e->inode);
}

Status FileCache::WriteData(const Fid& fid, const Bytes& data) {
  CacheEntry* e = Find(fid);
  if (e == nullptr || !e->has_data) return Status::kNotFound;
  RETURN_IF_ERROR(local_fs_->WriteFileByInode(e->inode, content::Ref::Canonicalize(data)));
  data_bytes_ -= e->accounted_bytes;
  e->accounted_bytes = data.size();
  data_bytes_ += e->accounted_bytes;
  e->status.length = data.size();
  return Status::kOk;
}

void FileCache::NoteLocalSize(const Fid& fid, uint64_t actual_bytes) {
  CacheEntry* e = Find(fid);
  if (e == nullptr || !e->has_data) return;
  data_bytes_ -= e->accounted_bytes;
  e->accounted_bytes = actual_bytes;
  data_bytes_ += e->accounted_bytes;
}

void FileCache::Invalidate(const Fid& fid) {
  CacheEntry* e = Find(fid);
  if (e == nullptr) return;
  e->valid = false;
  stats_.invalidations += 1;
}

void FileCache::Erase(const Fid& fid) {
  auto it = entries_.find(fid);
  if (it == entries_.end()) return;
  if (it->second.has_data) {
    data_entries_ -= 1;
    data_bytes_ -= it->second.accounted_bytes;
    // The entry leaves the accounting either way; a failed unlink means the
    // bytes are still on the local disk, which is worth a trace.
    const std::string path = PathFor(fid);
    if (Status s = local_fs_->Unlink(path); s != Status::kOk) {
      ITC_LOG(kWarning) << "cache file unlink failed for " << path << ": " << s;
    }
  }
  entries_.erase(it);
}

void FileCache::InvalidateAll() {
  for (auto& [fid, e] : entries_) {
    e.valid = false;
  }
  stats_.invalidations += entries_.size();
}

void FileCache::Touch(const Fid& fid, SimTime now) {
  CacheEntry* e = Find(fid);
  if (e != nullptr) e->last_used = now;
}

void FileCache::Pin(const Fid& fid) {
  CacheEntry* e = Find(fid);
  if (e != nullptr) e->pin_count += 1;
}

void FileCache::Unpin(const Fid& fid) {
  CacheEntry* e = Find(fid);
  if (e != nullptr && e->pin_count > 0) e->pin_count -= 1;
}

size_t FileCache::data_entry_count() const { return data_entries_; }

std::vector<Fid> FileCache::EnforceLimits() {
  std::vector<Fid> evicted;
  auto over_limit = [this] {
    if (config_.cache_limit == VenusConfig::CacheLimit::kFileCount) {
      return data_entry_count() > config_.max_cache_files;
    }
    return data_bytes_ > config_.max_cache_bytes;
  };
  while (over_limit()) {
    // LRU victim among unpinned data-bearing entries.
    const Fid* victim = nullptr;
    SimTime oldest = 0;
    for (const auto& [fid, e] : entries_) {
      if (!e.has_data || e.pin_count > 0 || e.dirty) continue;
      if (victim == nullptr || e.last_used < oldest) {
        victim = &fid;
        oldest = e.last_used;
      }
    }
    if (victim == nullptr) break;  // everything pinned; give up
    const Fid fid = *victim;
    stats_.evictions += 1;
    stats_.evicted_bytes += entries_.at(fid).accounted_bytes;
    evicted.push_back(fid);
    Erase(fid);
  }
  return evicted;
}

std::vector<Fid> FileCache::CachedFids() const {
  std::vector<Fid> out;
  out.reserve(entries_.size());
  for (const auto& [fid, e] : entries_) out.push_back(fid);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace itc::venus
