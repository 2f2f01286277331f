#include "src/vice/volume_registry.h"

#include "src/common/logging.h"

namespace itc::vice {

void VolumeRegistry::RegisterServer(ViceServer* server) {
  ITC_CHECK(server != nullptr);
  servers_[server->id()] = server;
  server->SetLocationSnapshot(std::make_shared<const LocationDb>(master_));
}

ViceServer* VolumeRegistry::ServerById(ServerId id) const {
  auto it = servers_.find(id);
  return it == servers_.end() ? nullptr : it->second;
}

std::vector<ViceServer*> VolumeRegistry::Servers() const {
  std::vector<ViceServer*> out;
  out.reserve(servers_.size());
  for (const auto& [id, server] : servers_) out.push_back(server);
  return out;
}

void VolumeRegistry::Publish() {
  master_.version += 1;
  auto snapshot = std::make_shared<const LocationDb>(master_);
  for (const auto& [id, server] : servers_) server->SetLocationSnapshot(snapshot);
}

Result<ViceServer*> VolumeRegistry::CustodianOf(VolumeId volume) const {
  auto info = master_.Find(volume);
  if (!info.has_value()) return Status::kNotFound;
  ViceServer* server = ServerById(info->custodian);
  if (server == nullptr) return Status::kUnavailable;
  return server;
}

Volume* VolumeRegistry::FindVolume(VolumeId volume) const {
  auto custodian = CustodianOf(volume);
  if (!custodian.ok()) return nullptr;
  return (*custodian)->FindVolume(volume);
}

Result<VolumeId> VolumeRegistry::CreateVolume(const std::string& name, ServerId custodian,
                                              UserId owner,
                                              const protection::AccessList& root_acl,
                                              uint64_t quota_bytes) {
  ViceServer* server = ServerById(custodian);
  if (server == nullptr) return Status::kNotFound;
  const VolumeId id = next_volume_++;
  server->InstallVolume(std::make_unique<Volume>(id, name, VolumeType::kReadWrite, owner,
                                                 root_acl, quota_bytes));
  VolumeInfo info;
  info.volume = id;
  info.read_write_volume = id;
  info.custodian = custodian;
  master_.volumes.Set(id, info);
  Publish();
  return id;
}

Status VolumeRegistry::SetRootVolume(VolumeId volume) {
  if (!master_.volumes.contains(volume)) return Status::kNotFound;
  master_.root_volume = volume;
  Publish();
  return Status::kOk;
}

Status VolumeRegistry::MountAt(const Fid& dir, const std::string& name, VolumeId child) {
  if (!master_.volumes.contains(child)) return Status::kNotFound;
  ASSIGN_OR_RETURN(ViceServer * server, CustodianOf(dir.volume));
  Volume* vol = server->FindVolume(dir.volume);
  if (vol == nullptr) return Status::kNotFound;
  RETURN_IF_ERROR(vol->MakeMountPoint(dir, name, child));
  // Direct mutation bypasses the intention log: checkpoint so it survives a
  // custodian crash.
  server->CheckpointVolume(dir.volume);
  // Clients caching this directory must refetch it to see the mount.
  server->callbacks().BreakFile(dir, 0, server->node(), server->network(),
                                &server->endpoint().cpu(), server->cost());
  return Status::kOk;
}

Status VolumeRegistry::CheckpointVolume(VolumeId volume) {
  ASSIGN_OR_RETURN(ViceServer * server, CustodianOf(volume));
  server->CheckpointVolume(volume);
  return Status::kOk;
}

Status VolumeRegistry::BreakVolumeCallbacks(VolumeId volume, SimTime at) {
  ASSIGN_OR_RETURN(ViceServer * server, CustodianOf(volume));
  server->callbacks().BreakVolume(volume, at, server->node(), server->network(),
                                  &server->endpoint().cpu(), server->cost());
  return Status::kOk;
}

Status VolumeRegistry::MoveVolume(VolumeId volume, ServerId new_custodian, SimTime at) {
  std::optional<VolumeInfo> info = master_.Find(volume);
  if (!info.has_value()) return Status::kNotFound;
  ViceServer* from = ServerById(info->custodian);
  ViceServer* to = ServerById(new_custodian);
  if (from == nullptr || to == nullptr) return Status::kUnavailable;
  if (from == to) return Status::kOk;

  std::unique_ptr<Volume> vol = from->EjectVolume(volume);
  if (vol == nullptr) return Status::kNotFound;

  // "The files whose custodians are being modified are unavailable during
  // the change" — cached copies may outlive the move, so their promises are
  // broken explicitly.
  from->callbacks().BreakVolume(volume, at, from->node(), from->network(),
                                &from->endpoint().cpu(), from->cost());
  to->InstallVolume(std::move(vol));
  info->custodian = new_custodian;
  master_.volumes.Set(volume, std::move(*info));
  Publish();
  return Status::kOk;
}

Result<VolumeId> VolumeRegistry::CloneVolume(VolumeId volume, const std::string& clone_name) {
  ASSIGN_OR_RETURN(ViceServer * server, CustodianOf(volume));
  Volume* vol = server->FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  if (vol->read_only()) return Status::kVolumeReadOnly;

  const VolumeId clone_id = next_volume_++;
  server->InstallVolume(vol->Clone(clone_id, clone_name));

  VolumeInfo info;
  info.volume = clone_id;
  info.read_write_volume = volume;
  info.read_only = true;
  info.custodian = server->id();
  master_.volumes.Set(clone_id, info);
  Publish();
  return clone_id;
}

Result<VolumeId> VolumeRegistry::ReleaseReadOnly(VolumeId volume,
                                                 const std::string& clone_name,
                                                 const std::vector<ServerId>& sites) {
  if (sites.empty()) return Status::kInvalidArgument;
  ASSIGN_OR_RETURN(ViceServer * server, CustodianOf(volume));
  Volume* vol = server->FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  if (vol->read_only()) return Status::kVolumeReadOnly;

  // All or nothing (§3.2): an unknown site refuses the release before any
  // clone is installed or a volume id is spent.
  for (ServerId site : sites) {
    if (ServerById(site) == nullptr) return Status::kNotFound;
  }
  const VolumeId clone_id = next_volume_++;
  for (ServerId site : sites) {
    ServerById(site)->InstallVolume(vol->Clone(clone_id, clone_name));
  }

  VolumeInfo clone_info;
  clone_info.volume = clone_id;
  clone_info.read_write_volume = volume;
  clone_info.read_only = true;
  clone_info.custodian = sites.front();
  clone_info.replica_sites = sites;
  master_.volumes.Set(clone_id, clone_info);

  // The atomic switch: the RW volume's location entry now advertises the new
  // clone; every Venus resolving through the location database sees either
  // the old release or the new one, never a mixture.
  VolumeInfo rw_info = *master_.volumes.Find(volume);
  rw_info.ro_clone = clone_id;
  master_.volumes.Set(volume, std::move(rw_info));
  Publish();
  return clone_id;
}

Result<Bytes> VolumeRegistry::BackupVolume(VolumeId volume) {
  ASSIGN_OR_RETURN(ViceServer * server, CustodianOf(volume));
  Volume* vol = server->FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  // Freeze-then-dump: the clone shares data copy-on-write, so the dump is a
  // consistent snapshot even conceptually concurrent with updates.
  auto clone = vol->Clone(volume, vol->name() + ".backup");
  return clone->Dump();
}

Result<VolumeId> VolumeRegistry::RestoreVolume(const Bytes& dump, const std::string& name,
                                               ServerId custodian) {
  ViceServer* server = ServerById(custodian);
  if (server == nullptr) return Status::kNotFound;
  const VolumeId id = next_volume_++;
  ASSIGN_OR_RETURN(auto vol, Volume::Restore(dump, id, name, VolumeType::kReadWrite));
  server->InstallVolume(std::move(vol));
  VolumeInfo info;
  info.volume = id;
  info.read_write_volume = id;
  info.custodian = custodian;
  master_.volumes.Set(id, info);
  Publish();
  return id;
}

Status VolumeRegistry::SetVolumeQuota(VolumeId volume, uint64_t quota_bytes) {
  Volume* vol = FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  vol->set_quota_bytes(quota_bytes);
  return CheckpointVolume(volume);
}

Status VolumeRegistry::SetVolumeOnline(VolumeId volume, bool online) {
  Volume* vol = FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  vol->set_online(online);
  return CheckpointVolume(volume);
}

Result<Volume::SalvageReport> VolumeRegistry::SalvageVolume(VolumeId volume) {
  Volume* vol = FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  const Volume::SalvageReport report = vol->Salvage();
  RETURN_IF_ERROR(CheckpointVolume(volume));
  return report;
}

}  // namespace itc::vice
