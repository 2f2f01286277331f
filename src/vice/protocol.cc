#include "src/vice/protocol.h"

namespace itc::vice {

namespace {

constexpr uint32_t Op(Proc p) { return static_cast<uint32_t>(p); }

}  // namespace

const rpc::OpSchema& ViceOpSchema() {
  constexpr CallClass kV = CallClass::kValidate;
  constexpr CallClass kS = CallClass::kStatus;
  constexpr CallClass kF = CallClass::kFetch;
  constexpr CallClass kW = CallClass::kStore;
  constexpr CallClass kO = CallClass::kOther;
  static const rpc::OpSchema schema(
      "vice",
      {
          {Op(Proc::kTestAuth), "TestAuth", kO, /*idempotent=*/true, 0, "—", "—"},
          {Op(Proc::kGetTime), "GetTime", kO, true, 0, "—", "`i64 server_time`"},
          {Op(Proc::kGetVolumeInfo), "GetVolumeInfo", kS, true, 0, "`u32 volume`",
           "`VolumeInfo`"},
          {Op(Proc::kGetRootVolume), "GetRootVolume", kO, true, 0, "—",
           "`u32 volume`"},
          {Op(Proc::kProbeEpoch), "ProbeEpoch", kO, true, 0, "—",
           "`u32 restart_epoch`"},
          {Op(Proc::kFetch), "Fetch", kF, true, kOpChargesPathname, "`fid`",
           "`VnodeStatus, bytes data` (+ `u64 lease_expiry` in lease mode)"},
          {Op(Proc::kFetchStatus), "FetchStatus", kS, true, kOpChargesPathname,
           "`fid`", "`VnodeStatus` (+ `u64 lease_expiry` in lease mode)"},
          {Op(Proc::kValidate), "Validate", kV, true, kOpChargesPathname,
           "`fid, u64 version`",
           "`bool valid, VnodeStatus` (+ `u64 lease_expiry` in lease mode)"},
          {Op(Proc::kStore), "Store", kW, false, kOpChargesPathname,
           "`fid, bytes data`", "`VnodeStatus`"},
          {Op(Proc::kSetStatus), "SetStatus", kO, false, kOpChargesPathname,
           "`fid, bool has_mode, u32 mode, bool has_owner, u32 owner`",
           "`VnodeStatus`"},
          {Op(Proc::kCreateFile), "CreateFile", kO, false, 0,
           "`fid dir, string name, u32 mode`", "`fid, VnodeStatus`"},
          {Op(Proc::kMakeDir), "MakeDir", kO, false, 0,
           "`fid dir, string name, bytes acl` (empty acl = inherit)",
           "`fid, VnodeStatus`"},
          {Op(Proc::kMakeSymlink), "MakeSymlink", kO, false, 0,
           "`fid dir, string name, string target`", "`fid, VnodeStatus`"},
          {Op(Proc::kRemoveFile), "RemoveFile", kO, false, 0,
           "`fid dir, string name`", "—"},
          {Op(Proc::kRemoveDir), "RemoveDir", kO, false, 0,
           "`fid dir, string name`", "—"},
          {Op(Proc::kRename), "Rename", kO, false, 0,
           "`fid from_dir, string, fid to_dir, string`", "—"},
          {Op(Proc::kMakeMountPoint), "MakeMountPoint", kO, false, 0,
           "`fid dir, string name, u32 volume`", "—"},
          {Op(Proc::kResolvePath), "ResolvePath", kS, true, 0,
           "`u32 start_volume (0=root), string path`",
           "`fid, VnodeStatus`; on `NOT_CUSTODIAN`: `u32 custodian, u32 volume, "
           "string remaining`"},
          {Op(Proc::kGetAcl), "GetAcl", kO, true, 0, "`fid`", "`bytes acl`"},
          {Op(Proc::kSetAcl), "SetAcl", kO, false, 0, "`fid, bytes acl`", "—"},
          {Op(Proc::kSetLock), "SetLock", kO, false, 0,
           "`fid, u8 mode (0 shared, 1 exclusive)`", "— (`LOCKED` on conflict)"},
          {Op(Proc::kReleaseLock), "ReleaseLock", kO, false, 0, "`fid`",
           "— (`NOT_LOCKED` if not held)"},
          {Op(Proc::kRemoveCallback), "RemoveCallback", kO, true, 0, "`fid`", "—"},
          {Op(Proc::kRenewLeases), "RenewLeases", kV, true, 0, "`u32 n, fid...`",
           "`u64 new_expiry, u32 n_rejected, fid...` (rejected must revalidate)"},
          {Op(Proc::kGetVolumeStatus), "GetVolumeStatus", kO, true, 0,
           "`u32 volume`", "`u64 quota, u64 usage, bool ro, bool online, u64 vnodes`"},
      });
  return schema;
}

std::string_view ProcName(Proc p) {
  const rpc::OpSpec* op = ViceOpSchema().Find(static_cast<uint32_t>(p));
  return op != nullptr ? op->name : "Unknown";
}

CallClass ClassOf(Proc p) {
  const rpc::OpSpec* op = ViceOpSchema().Find(static_cast<uint32_t>(p));
  return op != nullptr ? op->call_class : CallClass::kOther;
}

void PutVnodeStatus(rpc::Writer& w, const VnodeStatus& s) {
  w.PutFid(s.fid);
  w.PutU8(static_cast<uint8_t>(s.type));
  w.PutU64(s.length);
  w.PutU64(s.version);
  w.PutI64(s.mtime);
  w.PutU32(s.owner);
  w.PutU32(s.mode);
  w.PutU32(s.link_count);
  w.PutFid(s.parent);
}

Result<VnodeStatus> ReadVnodeStatus(rpc::Reader& r) {
  VnodeStatus s;
  ASSIGN_OR_RETURN(s.fid, r.FidField());
  ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type > 2) return Status::kProtocolError;
  s.type = static_cast<VnodeType>(type);
  ASSIGN_OR_RETURN(s.length, r.U64());
  ASSIGN_OR_RETURN(s.version, r.U64());
  ASSIGN_OR_RETURN(s.mtime, r.I64());
  ASSIGN_OR_RETURN(s.owner, r.U32());
  ASSIGN_OR_RETURN(uint32_t mode, r.U32());
  s.mode = static_cast<uint16_t>(mode);
  ASSIGN_OR_RETURN(s.link_count, r.U32());
  ASSIGN_OR_RETURN(s.parent, r.FidField());
  return s;
}

void PutVolumeInfo(rpc::Writer& w, const VolumeInfo& info) {
  w.PutU32(info.volume);
  w.PutU32(info.read_write_volume);
  w.PutU32(info.ro_clone);
  w.PutBool(info.read_only);
  w.PutU32(info.custodian);
  w.PutU32(static_cast<uint32_t>(info.replica_sites.size()));
  for (ServerId s : info.replica_sites) w.PutU32(s);
}

Result<VolumeInfo> ReadVolumeInfo(rpc::Reader& r) {
  VolumeInfo info;
  ASSIGN_OR_RETURN(info.volume, r.U32());
  ASSIGN_OR_RETURN(info.read_write_volume, r.U32());
  ASSIGN_OR_RETURN(info.ro_clone, r.U32());
  ASSIGN_OR_RETURN(info.read_only, r.Bool());
  ASSIGN_OR_RETURN(info.custodian, r.U32());
  ASSIGN_OR_RETURN(uint32_t n, r.U32());
  for (uint32_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(ServerId s, r.U32());
    info.replica_sites.push_back(s);
  }
  return info;
}

Bytes StatusReply(Status s) { return rpc::StatusOnlyReply(s); }

}  // namespace itc::vice
