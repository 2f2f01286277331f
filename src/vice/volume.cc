#include "src/vice/volume.h"

#include <algorithm>
#include <set>

#include "src/common/logging.h"
#include "src/common/path.h"
#include "src/rpc/wire.h"
#include "src/vice/protocol.h"

namespace itc::vice {

Volume::Volume(VolumeId id, std::string name, VolumeType type, UserId owner,
               protection::AccessList root_acl, uint64_t quota_bytes)
    : id_(id), name_(std::move(name)), type_(type), quota_bytes_(quota_bytes) {
  Vnode root;
  root.status.fid = VolumeRootFid(id_);
  root.status.type = VnodeType::kDirectory;
  root.status.mode = 0755;
  root.status.owner = owner;
  root.status.version = 1;
  root.status.length = DirDataSize({});
  root.acl = std::move(root_acl);
  vnodes_.emplace(1u, std::move(root));
  usage_bytes_ = kPerVnodeOverhead;
}

Result<const Volume::Vnode*> Volume::Lookup(const Fid& fid) const {
  if (!online_) return Status::kVolumeOffline;
  if (fid.volume != id_) return Status::kInvalidArgument;
  auto it = vnodes_.find(fid.vnode);
  if (it == vnodes_.end() || it->second.status.fid.uniquifier != fid.uniquifier) {
    return Status::kStaleFid;
  }
  return &it->second;
}

Result<Volume::Vnode*> Volume::LookupMutable(const Fid& fid) {
  ASSIGN_OR_RETURN(const Vnode* v, Lookup(fid));
  return const_cast<Vnode*>(v);
}

Result<const Volume::Vnode*> Volume::LookupDir(const Fid& fid) const {
  ASSIGN_OR_RETURN(const Vnode* v, Lookup(fid));
  if (v->status.type != VnodeType::kDirectory) return Status::kNotDirectory;
  return v;
}

Result<Volume::Vnode*> Volume::LookupDirMutable(const Fid& fid) {
  ASSIGN_OR_RETURN(const Vnode* v, LookupDir(fid));
  return const_cast<Vnode*>(v);
}

Fid Volume::NewFid() { return Fid{id_, next_vnode_++, next_uniquifier_++}; }

// SerializeDirectory's layout: a 4-byte count, then per entry the name
// (4-byte length + bytes), the kind, the fid and the mount volume.
uint64_t Volume::DirEntrySize(const std::string& name) { return 4 + name.size() + 1 + 12 + 4; }

uint64_t Volume::DirDataSize(const DirMap& entries) {
  uint64_t size = 4;
  for (const auto& [name, item] : entries) size += DirEntrySize(name);
  return size;
}

void Volume::TouchDir(Vnode& dir, uint64_t added, uint64_t removed) {
  dir.status.version += 1;
  dir.status.mtime = now_;
  dir.status.length = dir.status.length + added - removed;
  dir_buffers_.erase(dir.status.fid.vnode);
}

Status Volume::ChargeQuota(int64_t delta) {
  const int64_t next = static_cast<int64_t>(usage_bytes_) + delta;
  ITC_CHECK(next >= 0);
  if (quota_bytes_ > 0 && delta > 0 && static_cast<uint64_t>(next) > quota_bytes_) {
    return Status::kQuotaExceeded;
  }
  usage_bytes_ = static_cast<uint64_t>(next);
  return Status::kOk;
}

Result<Fid> Volume::CreateFile(const Fid& dir, const std::string& name, UserId owner,
                               uint16_t mode) {
  if (read_only()) return Status::kVolumeReadOnly;
  if (!IsValidName(name)) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(Vnode * d, LookupDirMutable(dir));
  if (d->entries.contains(name)) return Status::kAlreadyExists;
  RETURN_IF_ERROR(ChargeQuota(kPerVnodeOverhead));

  const Fid fid = NewFid();
  Vnode v;
  v.status.fid = fid;
  v.status.type = VnodeType::kFile;
  v.status.owner = owner;
  v.status.mode = mode;
  v.status.version = 1;
  v.status.mtime = now_;
  v.status.parent = dir;
  vnodes_.emplace(fid.vnode, std::move(v));
  d->entries.emplace(name, DirItem{DirItem::Kind::kFile, fid, kInvalidVolume});
  TouchDir(*d, DirEntrySize(name), 0);
  return fid;
}

Result<Fid> Volume::MakeDir(const Fid& dir, const std::string& name, UserId owner,
                            const protection::AccessList& acl) {
  if (read_only()) return Status::kVolumeReadOnly;
  if (!IsValidName(name)) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(Vnode * d, LookupDirMutable(dir));
  if (d->entries.contains(name)) return Status::kAlreadyExists;
  RETURN_IF_ERROR(ChargeQuota(kPerVnodeOverhead));

  const Fid fid = NewFid();
  Vnode v;
  v.status.fid = fid;
  v.status.type = VnodeType::kDirectory;
  v.status.owner = owner;
  v.status.mode = 0755;
  v.status.version = 1;
  v.status.mtime = now_;
  v.status.length = DirDataSize({});
  v.status.parent = dir;
  v.acl = acl;
  vnodes_.emplace(fid.vnode, std::move(v));
  d->entries.emplace(name, DirItem{DirItem::Kind::kDirectory, fid, kInvalidVolume});
  TouchDir(*d, DirEntrySize(name), 0);
  return fid;
}

Result<Fid> Volume::MakeSymlink(const Fid& dir, const std::string& name,
                                const std::string& target, UserId owner) {
  if (read_only()) return Status::kVolumeReadOnly;
  if (!IsValidName(name) || target.empty()) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(Vnode * d, LookupDirMutable(dir));
  if (d->entries.contains(name)) return Status::kAlreadyExists;
  RETURN_IF_ERROR(
      ChargeQuota(static_cast<int64_t>(kPerVnodeOverhead + target.size())));

  const Fid fid = NewFid();
  Vnode v;
  v.status.fid = fid;
  v.status.type = VnodeType::kSymlink;
  v.status.owner = owner;
  v.status.mode = 0777;
  v.status.version = 1;
  v.status.mtime = now_;
  v.status.parent = dir;
  v.status.length = target.size();
  v.data = content::Ref::Inline(ToBytes(target));
  vnodes_.emplace(fid.vnode, std::move(v));
  d->entries.emplace(name, DirItem{DirItem::Kind::kSymlink, fid, kInvalidVolume});
  TouchDir(*d, DirEntrySize(name), 0);
  return fid;
}

Status Volume::MakeMountPoint(const Fid& dir, const std::string& name, VolumeId target) {
  if (read_only()) return Status::kVolumeReadOnly;
  if (!IsValidName(name) || target == kInvalidVolume) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(Vnode * d, LookupDirMutable(dir));
  if (d->entries.contains(name)) return Status::kAlreadyExists;
  d->entries.emplace(name, DirItem{DirItem::Kind::kMountPoint, kNullFid, target});
  TouchDir(*d, DirEntrySize(name), 0);
  return Status::kOk;
}

Status Volume::RemoveFile(const Fid& dir, const std::string& name) {
  if (read_only()) return Status::kVolumeReadOnly;
  ASSIGN_OR_RETURN(Vnode * d, LookupDirMutable(dir));
  auto it = d->entries.find(name);
  if (it == d->entries.end()) return Status::kNotFound;
  if (it->second.kind == DirItem::Kind::kDirectory) return Status::kIsDirectory;

  if (it->second.kind != DirItem::Kind::kMountPoint) {
    auto victim = vnodes_.find(it->second.fid.vnode);
    if (victim != vnodes_.end()) {
      const uint64_t data_size = victim->second.data.size();
      ITC_CHECK(ChargeQuota(-static_cast<int64_t>(kPerVnodeOverhead + data_size)) ==
                Status::kOk);
      vnodes_.erase(victim);
    }
  }
  d->entries.erase(it);
  TouchDir(*d, 0, DirEntrySize(name));
  return Status::kOk;
}

Status Volume::RemoveDir(const Fid& dir, const std::string& name) {
  if (read_only()) return Status::kVolumeReadOnly;
  ASSIGN_OR_RETURN(Vnode * d, LookupDirMutable(dir));
  auto it = d->entries.find(name);
  if (it == d->entries.end()) return Status::kNotFound;
  if (it->second.kind != DirItem::Kind::kDirectory) return Status::kNotDirectory;
  auto victim = vnodes_.find(it->second.fid.vnode);
  if (victim != vnodes_.end()) {
    if (!victim->second.entries.empty()) return Status::kNotEmpty;
    ITC_CHECK(ChargeQuota(-static_cast<int64_t>(kPerVnodeOverhead)) == Status::kOk);
    dir_buffers_.erase(victim->first);
    vnodes_.erase(victim);
  }
  d->entries.erase(it);
  TouchDir(*d, 0, DirEntrySize(name));
  return Status::kOk;
}

Status Volume::Rename(const Fid& from_dir, const std::string& from_name, const Fid& to_dir,
                      const std::string& to_name) {
  if (read_only()) return Status::kVolumeReadOnly;
  if (!IsValidName(to_name)) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(Vnode * src, LookupDirMutable(from_dir));
  auto src_it = src->entries.find(from_name);
  if (src_it == src->entries.end()) return Status::kNotFound;
  const DirItem moving = src_it->second;

  ASSIGN_OR_RETURN(Vnode * dst, LookupDirMutable(to_dir));

  // A directory must not move into its own subtree: walk up from to_dir.
  if (moving.kind == DirItem::Kind::kDirectory) {
    Fid cursor = to_dir;
    while (cursor.valid()) {
      if (cursor == moving.fid) return Status::kInvalidArgument;
      auto r = Lookup(cursor);
      if (!r.ok()) break;
      cursor = (*r)->status.parent;
    }
  }

  auto dst_it = dst->entries.find(to_name);
  if (dst_it != dst->entries.end()) {
    const DirItem& target = dst_it->second;
    if (target == moving && from_dir == to_dir && from_name == to_name) return Status::kOk;
    if (moving.kind == DirItem::Kind::kDirectory) {
      if (target.kind != DirItem::Kind::kDirectory) return Status::kNotDirectory;
      auto tv = vnodes_.find(target.fid.vnode);
      if (tv != vnodes_.end() && !tv->second.entries.empty()) return Status::kNotEmpty;
      RETURN_IF_ERROR(RemoveDir(to_dir, to_name));
    } else {
      if (target.kind == DirItem::Kind::kDirectory) return Status::kIsDirectory;
      RETURN_IF_ERROR(RemoveFile(to_dir, to_name));
    }
    // Re-find after removal invalidated iterators.
    ASSIGN_OR_RETURN(dst, LookupDirMutable(to_dir));
    ASSIGN_OR_RETURN(src, LookupDirMutable(from_dir));
    src_it = src->entries.find(from_name);
    ITC_CHECK(src_it != src->entries.end());
  }

  src->entries.erase(src_it);
  dst->entries.emplace(to_name, moving);
  if (moving.kind != DirItem::Kind::kMountPoint) {
    auto mv = vnodes_.find(moving.fid.vnode);
    if (mv != vnodes_.end()) {
      mv->second.status.parent = to_dir;
      // Fids are invariant across renames (Section 5.3): only the parent
      // pointer changes; fid, version and data are untouched.
    }
  }
  if (from_dir == to_dir) {
    TouchDir(*src, DirEntrySize(to_name), DirEntrySize(from_name));
  } else {
    TouchDir(*src, 0, DirEntrySize(from_name));
    TouchDir(*dst, DirEntrySize(to_name), 0);
  }
  return Status::kOk;
}

Result<content::Ref> Volume::FetchRef(const Fid& fid) const {
  ASSIGN_OR_RETURN(const Vnode* v, Lookup(fid));
  if (v->status.type != VnodeType::kDirectory) return v->data;
  auto [it, built] = dir_buffers_.try_emplace(fid.vnode);
  if (built) it->second = content::Ref::Inline(SerializeDirectory(v->entries));
  return it->second;
}

Result<Bytes> Volume::FetchData(const Fid& fid) const {
  ASSIGN_OR_RETURN(content::Ref data, FetchRef(fid));
  return data.Materialize();
}

Status Volume::StoreData(const Fid& fid, Bytes data) {
  return StoreRef(fid, content::Ref::Canonicalize(std::move(data)));
}

Status Volume::StoreRef(const Fid& fid, content::Ref data) {
  if (read_only()) return Status::kVolumeReadOnly;
  ASSIGN_OR_RETURN(Vnode * v, LookupMutable(fid));
  if (v->status.type == VnodeType::kDirectory) return Status::kIsDirectory;
  const uint64_t old_size = v->data.size();
  RETURN_IF_ERROR(ChargeQuota(static_cast<int64_t>(data.size()) -
                              static_cast<int64_t>(old_size)));
  v->data = std::move(data);
  v->status.length = v->data.size();
  v->status.version += 1;
  v->status.mtime = now_;
  return Status::kOk;
}

Result<VnodeStatus> Volume::GetStatus(const Fid& fid) const {
  ASSIGN_OR_RETURN(const Vnode* v, Lookup(fid));
  return v->status;
}

Status Volume::SetMode(const Fid& fid, uint16_t mode) {
  if (read_only()) return Status::kVolumeReadOnly;
  ASSIGN_OR_RETURN(Vnode * v, LookupMutable(fid));
  v->status.mode = mode;
  v->status.version += 1;
  return Status::kOk;
}

Status Volume::SetOwner(const Fid& fid, UserId owner) {
  if (read_only()) return Status::kVolumeReadOnly;
  ASSIGN_OR_RETURN(Vnode * v, LookupMutable(fid));
  v->status.owner = owner;
  v->status.version += 1;
  return Status::kOk;
}

Status Volume::SetAcl(const Fid& dir, const protection::AccessList& acl) {
  if (read_only()) return Status::kVolumeReadOnly;
  ASSIGN_OR_RETURN(Vnode * v, LookupMutable(dir));
  if (v->status.type != VnodeType::kDirectory) return Status::kNotDirectory;
  v->acl = acl;
  v->status.version += 1;
  return Status::kOk;
}

Result<const protection::AccessList*> Volume::EffectiveAcl(const Fid& fid) const {
  ASSIGN_OR_RETURN(const Vnode* v, Lookup(fid));
  if (v->status.type == VnodeType::kDirectory) return &v->acl;
  ASSIGN_OR_RETURN(const Vnode* parent, Lookup(v->status.parent));
  if (parent->status.type != VnodeType::kDirectory) return Status::kInternal;
  return &parent->acl;
}

std::unique_ptr<Volume> Volume::Clone(VolumeId clone_id, const std::string& clone_name) const {
  auto clone = std::make_unique<Volume>(clone_id, clone_name, VolumeType::kReadOnly,
                                        vnodes_.at(1).status.owner,
                                        protection::AccessList{}, /*quota_bytes=*/0);
  clone->vnodes_.clear();
  auto rebrand = [clone_id](Fid f) {
    if (f.valid()) f.volume = clone_id;
    return f;
  };
  for (const auto& [num, v] : vnodes_) {
    Vnode copy = v;  // shares `data` — the copy-on-write
    copy.status.fid = rebrand(copy.status.fid);
    copy.status.parent = rebrand(copy.status.parent);
    for (auto& [name, item] : copy.entries) item.fid = rebrand(item.fid);
    clone->vnodes_.emplace(num, std::move(copy));
  }
  clone->next_vnode_ = next_vnode_;
  clone->next_uniquifier_ = next_uniquifier_;
  clone->usage_bytes_ = usage_bytes_;
  clone->now_ = now_;
  return clone;
}

std::unique_ptr<Volume> Volume::Snapshot() const {
  auto snap = std::make_unique<Volume>(id_, name_, type_, vnodes_.at(1).status.owner,
                                       protection::AccessList{}, quota_bytes_);
  snap->vnodes_ = vnodes_;  // Vnode copies share `data` — the copy-on-write
  snap->online_ = online_;
  snap->usage_bytes_ = usage_bytes_;
  snap->next_vnode_ = next_vnode_;
  snap->next_uniquifier_ = next_uniquifier_;
  snap->now_ = now_;
  return snap;
}

namespace {
constexpr uint32_t kDumpMagic = 0x56444d50;  // "VDMP"
constexpr uint32_t kDumpVersion = 1;
}  // namespace

Bytes Volume::Dump() const {
  rpc::Writer w;
  w.PutU32(kDumpMagic);
  w.PutU32(kDumpVersion);
  w.PutU32(id_);
  w.PutString(name_);
  w.PutU8(static_cast<uint8_t>(type_));
  w.PutU64(quota_bytes_);
  w.PutU32(next_vnode_);
  w.PutU32(next_uniquifier_);
  w.PutU32(static_cast<uint32_t>(vnodes_.size()));
  // Sorted for a stable, diffable dump format.
  std::vector<uint32_t> order;
  order.reserve(vnodes_.size());
  for (const auto& [num, v] : vnodes_) order.push_back(num);
  std::sort(order.begin(), order.end());
  for (uint32_t num : order) {
    const Vnode& v = vnodes_.at(num);
    const bool has_data = v.status.type != VnodeType::kDirectory;
    w.PutU32(num);
    PutVnodeStatus(w, v.status);
    w.PutBool(has_data);
    // Dump is the wire/backup format: logical bytes, materialized
    // transiently per vnode. The in-memory representation (a ref) never
    // leaks into the stream, so a dump's size — and every disk charge
    // derived from it — is independent of how contents are stored.
    if (has_data) w.PutBytes(v.data.Materialize());
    w.PutBytes(SerializeDirectory(v.entries));
    w.PutBytes(v.acl.Serialize());
  }
  return w.Take();
}

uint64_t Volume::DumpSize() const {
  // Mirrors Dump() field for field, but counts the file contents instead of
  // copying them: PutBytes(b) is a 4-byte length prefix plus b.size().
  rpc::Writer w;
  w.PutU32(kDumpMagic);
  w.PutU32(kDumpVersion);
  w.PutU32(id_);
  w.PutString(name_);
  w.PutU8(static_cast<uint8_t>(type_));
  w.PutU64(quota_bytes_);
  w.PutU32(next_vnode_);
  w.PutU32(next_uniquifier_);
  w.PutU32(static_cast<uint32_t>(vnodes_.size()));
  uint64_t data_bytes = 0;
  for (const auto& [num, v] : vnodes_) {
    w.PutU32(num);
    PutVnodeStatus(w, v.status);
    w.PutBool(v.status.type != VnodeType::kDirectory);
    if (v.status.type != VnodeType::kDirectory) data_bytes += 4 + v.data.size();
    data_bytes += 4 + SerializeDirectory(v.entries).size();
    data_bytes += 4 + v.acl.Serialize().size();
  }
  return w.size() + data_bytes;
}

Result<std::unique_ptr<Volume>> Volume::Restore(const Bytes& dump, VolumeId new_id,
                                                const std::string& new_name,
                                                VolumeType type) {
  rpc::Reader r(dump);
  ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (magic != kDumpMagic || version != kDumpVersion) return Status::kProtocolError;
  ASSIGN_OR_RETURN(VolumeId old_id, r.U32());
  RETURN_IF_ERROR(r.String().status());  // original name (informational)
  ASSIGN_OR_RETURN(uint8_t dumped_type, r.U8());
  (void)dumped_type;  // the caller chooses the restored type
  ASSIGN_OR_RETURN(uint64_t quota, r.U64());
  ASSIGN_OR_RETURN(uint32_t next_vnode, r.U32());
  ASSIGN_OR_RETURN(uint32_t next_uniq, r.U32());
  ASSIGN_OR_RETURN(uint32_t count, r.U32());

  auto vol = std::make_unique<Volume>(new_id, new_name, type, kAnonymousUser,
                                      protection::AccessList{}, quota);
  vol->vnodes_.clear();
  vol->next_vnode_ = next_vnode;
  vol->next_uniquifier_ = next_uniq;

  auto rebrand = [old_id, new_id](Fid f) {
    if (f.valid() && f.volume == old_id) f.volume = new_id;
    return f;
  };

  uint64_t usage = 0;
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(uint32_t num, r.U32());
    Vnode v;
    ASSIGN_OR_RETURN(v.status, ReadVnodeStatus(r));
    v.status.fid = rebrand(v.status.fid);
    v.status.parent = rebrand(v.status.parent);
    ASSIGN_OR_RETURN(bool has_data, r.Bool());
    if (has_data) {
      ASSIGN_OR_RETURN(Bytes data, r.BytesField());
      usage += data.size();
      // Restored contents canonicalize back to refs: a restore is as lazy
      // as the volume it was dumped from.
      v.data = content::Ref::Canonicalize(std::move(data));
    }
    ASSIGN_OR_RETURN(Bytes dir_bytes, r.BytesField());
    ASSIGN_OR_RETURN(v.entries, DeserializeDirectory(dir_bytes));
    for (auto& [name, item] : v.entries) item.fid = rebrand(item.fid);
    ASSIGN_OR_RETURN(Bytes acl_bytes, r.BytesField());
    ASSIGN_OR_RETURN(v.acl, protection::AccessList::Deserialize(acl_bytes));
    usage += kPerVnodeOverhead;
    vol->vnodes_.emplace(num, std::move(v));
  }
  if (!r.AtEnd()) return Status::kProtocolError;
  if (!vol->vnodes_.contains(1)) return Status::kProtocolError;  // no root
  vol->usage_bytes_ = usage;
  return vol;
}

Volume::SalvageReport Volume::Salvage() {
  SalvageReport report;
  // Dropping a dangling entry changes a directory without a new version.
  dir_buffers_.clear();

  // Pass 1: drop directory entries that point at missing/stale vnodes.
  for (auto& [num, v] : vnodes_) {
    if (v.status.type != VnodeType::kDirectory) continue;
    for (auto it = v.entries.begin(); it != v.entries.end();) {
      if (it->second.kind == DirItem::Kind::kMountPoint) {
        ++it;
        continue;
      }
      auto target = vnodes_.find(it->second.fid.vnode);
      if (target == vnodes_.end() ||
          target->second.status.fid.uniquifier != it->second.fid.uniquifier) {
        it = v.entries.erase(it);
        report.dangling_entries_removed += 1;
      } else {
        ++it;
      }
    }
  }

  // Pass 2: find vnodes unreachable from the root; remove them. Also fix
  // parent pointers to match the directory that actually references a vnode.
  std::set<uint32_t> reachable;
  std::vector<uint32_t> frontier{1};
  reachable.insert(1);
  while (!frontier.empty()) {
    const uint32_t cur = frontier.back();
    frontier.pop_back();
    Vnode& v = Node(cur);
    if (v.status.type != VnodeType::kDirectory) continue;
    for (auto& [name, item] : v.entries) {
      if (item.kind == DirItem::Kind::kMountPoint) continue;
      Vnode& child = Node(item.fid.vnode);
      if (!(child.status.parent == v.status.fid)) {
        child.status.parent = v.status.fid;
        report.parents_fixed += 1;
      }
      if (reachable.insert(item.fid.vnode).second) frontier.push_back(item.fid.vnode);
    }
  }
  for (auto it = vnodes_.begin(); it != vnodes_.end();) {
    if (!reachable.contains(it->first)) {
      it = vnodes_.erase(it);
      report.orphan_vnodes_removed += 1;
    } else {
      ++it;
    }
  }

  // Pass 3: recompute quota usage and directory lengths.
  uint64_t usage = 0;
  for (auto& [num, v] : vnodes_) {
    usage += kPerVnodeOverhead + v.data.size();
    if (v.status.type != VnodeType::kDirectory) continue;
    const uint64_t length = DirDataSize(v.entries);
    if (v.status.length != length) {
      v.status.length = length;
      report.dir_lengths_corrected += 1;
    }
  }
  report.usage_corrected_bytes =
      usage > usage_bytes_ ? usage - usage_bytes_ : usage_bytes_ - usage;
  usage_bytes_ = usage;
  return report;
}

uint64_t Volume::RetainedContentBytes(std::unordered_set<const void*>* seen) const {
  uint64_t total = 0;
  for (const auto& [num, v] : vnodes_) total += v.data.RetainedBytes(seen);
  return total;
}

}  // namespace itc::vice
