#include "src/vice/recovery/intention_log.h"

#include <utility>

#include "src/common/logging.h"
#include "src/protection/access_list.h"
#include "src/rpc/wire.h"
#include "src/vice/volume.h"

namespace itc::vice::recovery {

const char* IntentKindName(IntentKind k) {
  switch (k) {
    case IntentKind::kStore: return "Store";
    case IntentKind::kCreateFile: return "CreateFile";
    case IntentKind::kMakeDir: return "MakeDir";
    case IntentKind::kMakeSymlink: return "MakeSymlink";
    case IntentKind::kRemoveFile: return "RemoveFile";
    case IntentKind::kRemoveDir: return "RemoveDir";
    case IntentKind::kRename: return "Rename";
    case IntentKind::kSetStatus: return "SetStatus";
    case IntentKind::kSetAcl: return "SetAcl";
    case IntentKind::kMakeMountPoint: return "MakeMountPoint";
  }
  return "?";
}

uint64_t IntentionLog::Append(IntentKind kind, VolumeId volume, SimTime when,
                              Bytes payload) {
  Intention rec;
  rec.lsn = next_lsn_++;
  rec.kind = kind;
  rec.volume = volume;
  rec.when = when;
  rec.state = IntentState::kLogged;
  bytes_appended_ += payload.size();
  rec.payload = std::move(payload);
  records_.push_back(std::move(rec));
  return records_.back().lsn;
}

uint64_t IntentionLog::AppendStore(VolumeId volume, SimTime when, const Fid& fid,
                                   content::Ref contents) {
  Intention rec;
  rec.lsn = next_lsn_++;
  rec.kind = IntentKind::kStore;
  rec.volume = volume;
  rec.when = when;
  rec.state = IntentState::kLogged;
  bytes_appended_ += LogicalStoreRecordBytes(contents.size());
  rpc::Writer w;
  w.PutFid(fid);
  rec.payload = w.Take();
  rec.contents = std::move(contents);
  records_.push_back(std::move(rec));
  return records_.back().lsn;
}

Intention* IntentionLog::Find(uint64_t lsn) {
  // Records are appended in LSN order; the record being marked is almost
  // always the last one.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->lsn == lsn) return &*it;
  }
  return nullptr;
}

void IntentionLog::MarkCommitted(uint64_t lsn) {
  Intention* rec = Find(lsn);
  ITC_CHECK(rec != nullptr);
  rec->state = IntentState::kCommitted;
}

void IntentionLog::MarkAborted(uint64_t lsn) {
  Intention* rec = Find(lsn);
  ITC_CHECK(rec != nullptr);
  rec->state = IntentState::kAborted;
}

Bytes EncodeCreateFile(const Fid& dir, const std::string& name, UserId owner,
                       uint16_t mode) {
  rpc::Writer w;
  w.PutFid(dir);
  w.PutString(name);
  w.PutU32(owner);
  w.PutU32(mode);
  return w.Take();
}

Bytes EncodeMakeDir(const Fid& dir, const std::string& name, UserId owner,
                    const Bytes& acl_bytes) {
  rpc::Writer w;
  w.PutFid(dir);
  w.PutString(name);
  w.PutU32(owner);
  w.PutBytes(acl_bytes);
  return w.Take();
}

Bytes EncodeMakeSymlink(const Fid& dir, const std::string& name, const std::string& target,
                        UserId owner) {
  rpc::Writer w;
  w.PutFid(dir);
  w.PutString(name);
  w.PutString(target);
  w.PutU32(owner);
  return w.Take();
}

Bytes EncodeRemove(const Fid& dir, const std::string& name) {
  rpc::Writer w;
  w.PutFid(dir);
  w.PutString(name);
  return w.Take();
}

Bytes EncodeRename(const Fid& from_dir, const std::string& from_name, const Fid& to_dir,
                   const std::string& to_name) {
  rpc::Writer w;
  w.PutFid(from_dir);
  w.PutString(from_name);
  w.PutFid(to_dir);
  w.PutString(to_name);
  return w.Take();
}

Bytes EncodeSetStatus(const Fid& fid, bool set_mode, uint16_t mode, bool set_owner,
                      UserId owner) {
  rpc::Writer w;
  w.PutFid(fid);
  w.PutBool(set_mode);
  w.PutU32(mode);
  w.PutBool(set_owner);
  w.PutU32(owner);
  return w.Take();
}

Bytes EncodeSetAcl(const Fid& dir, const Bytes& acl_bytes) {
  rpc::Writer w;
  w.PutFid(dir);
  w.PutBytes(acl_bytes);
  return w.Take();
}

Bytes EncodeMakeMountPoint(const Fid& dir, const std::string& name, VolumeId target) {
  rpc::Writer w;
  w.PutFid(dir);
  w.PutString(name);
  w.PutU32(target);
  return w.Take();
}

Status ApplyIntention(Volume& vol, const Intention& rec) {
  vol.set_now(rec.when);
  rpc::Reader r(rec.payload);
  switch (rec.kind) {
    case IntentKind::kStore: {
      ASSIGN_OR_RETURN(Fid fid, r.FidField());
      // AppendStore records end at the fid and carry the contents as a ref.
      if (!r.AtEnd()) return Status::kProtocolError;
      return vol.StoreRef(fid, rec.contents);
    }
    case IntentKind::kCreateFile: {
      ASSIGN_OR_RETURN(Fid dir, r.FidField());
      ASSIGN_OR_RETURN(std::string name, r.String());
      ASSIGN_OR_RETURN(uint32_t owner, r.U32());
      ASSIGN_OR_RETURN(uint32_t mode, r.U32());
      return vol.CreateFile(dir, name, owner, static_cast<uint16_t>(mode)).status();
    }
    case IntentKind::kMakeDir: {
      ASSIGN_OR_RETURN(Fid dir, r.FidField());
      ASSIGN_OR_RETURN(std::string name, r.String());
      ASSIGN_OR_RETURN(uint32_t owner, r.U32());
      ASSIGN_OR_RETURN(Bytes acl_bytes, r.BytesField());
      ASSIGN_OR_RETURN(protection::AccessList acl,
                       protection::AccessList::Deserialize(acl_bytes));
      return vol.MakeDir(dir, name, owner, acl).status();
    }
    case IntentKind::kMakeSymlink: {
      ASSIGN_OR_RETURN(Fid dir, r.FidField());
      ASSIGN_OR_RETURN(std::string name, r.String());
      ASSIGN_OR_RETURN(std::string target, r.String());
      ASSIGN_OR_RETURN(uint32_t owner, r.U32());
      return vol.MakeSymlink(dir, name, target, owner).status();
    }
    case IntentKind::kRemoveFile: {
      ASSIGN_OR_RETURN(Fid dir, r.FidField());
      ASSIGN_OR_RETURN(std::string name, r.String());
      return vol.RemoveFile(dir, name);
    }
    case IntentKind::kRemoveDir: {
      ASSIGN_OR_RETURN(Fid dir, r.FidField());
      ASSIGN_OR_RETURN(std::string name, r.String());
      return vol.RemoveDir(dir, name);
    }
    case IntentKind::kRename: {
      ASSIGN_OR_RETURN(Fid from_dir, r.FidField());
      ASSIGN_OR_RETURN(std::string from_name, r.String());
      ASSIGN_OR_RETURN(Fid to_dir, r.FidField());
      ASSIGN_OR_RETURN(std::string to_name, r.String());
      return vol.Rename(from_dir, from_name, to_dir, to_name);
    }
    case IntentKind::kSetStatus: {
      ASSIGN_OR_RETURN(Fid fid, r.FidField());
      ASSIGN_OR_RETURN(bool set_mode, r.Bool());
      ASSIGN_OR_RETURN(uint32_t mode, r.U32());
      ASSIGN_OR_RETURN(bool set_owner, r.Bool());
      ASSIGN_OR_RETURN(uint32_t owner, r.U32());
      if (set_mode) RETURN_IF_ERROR(vol.SetMode(fid, static_cast<uint16_t>(mode)));
      if (set_owner) RETURN_IF_ERROR(vol.SetOwner(fid, owner));
      return Status::kOk;
    }
    case IntentKind::kSetAcl: {
      ASSIGN_OR_RETURN(Fid dir, r.FidField());
      ASSIGN_OR_RETURN(Bytes acl_bytes, r.BytesField());
      ASSIGN_OR_RETURN(protection::AccessList acl,
                       protection::AccessList::Deserialize(acl_bytes));
      return vol.SetAcl(dir, acl);
    }
    case IntentKind::kMakeMountPoint: {
      ASSIGN_OR_RETURN(Fid dir, r.FidField());
      ASSIGN_OR_RETURN(std::string name, r.String());
      ASSIGN_OR_RETURN(uint32_t target, r.U32());
      return vol.MakeMountPoint(dir, name, target);
    }
  }
  return Status::kInvalidArgument;
}

}  // namespace itc::vice::recovery
