#include "src/campus/campus.h"

#include <unordered_set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/path.h"
#include "src/sim/kernel.h"

namespace itc::campus {

using protection::AccessList;
using protection::Principal;

CampusConfig CampusConfig::Revised(uint32_t clusters, uint32_t workstations_per_cluster) {
  CampusConfig c;
  c.topology = net::TopologyConfig{clusters, 1, workstations_per_cluster};
  c.rpc.transport = rpc::Transport::kDatagram;
  c.rpc.server_structure = rpc::ServerStructure::kLwp;
  c.vice = vice::ViceConfig{};          // callbacks, fids, per-file bits
  c.workstation.venus = venus::VenusConfig{};  // callbacks, client paths, space limit
  return c;
}

CampusConfig CampusConfig::Prototype(uint32_t clusters, uint32_t workstations_per_cluster) {
  CampusConfig c;
  c.topology = net::TopologyConfig{clusters, 1, workstations_per_cluster};
  c.rpc.transport = rpc::Transport::kStream;
  c.rpc.server_structure = rpc::ServerStructure::kProcessPerClient;
  c.vice = vice::PrototypeViceConfig();
  c.workstation.venus = venus::PrototypeVenusConfig();
  return c;
}

CampusConfig& CampusConfig::UseValidation(vice::Validation scheme) {
  workstation.venus.validation = scheme;
  vice.validation = scheme;
  return *this;
}

Campus::Campus(CampusConfig config) : config_(std::move(config)) {
  const net::Topology topo(config_.topology);
  network_ = std::make_unique<net::Network>(topo, config_.cost);

  // One ViceServer per server node, ids dense in topology order.
  for (uint32_t s = 0; s < topo.server_count(); ++s) {
    const NodeId node = topo.NthServer(s);
    auto server = std::make_unique<vice::ViceServer>(
        s, node, network_.get(), config_.cost, config_.rpc, config_.vice, &protection_,
        config_.seed ^ (0x5e4full << 32) ^ s);
    server_map_[s] = server.get();
    registry_.RegisterServer(server.get());
    servers_.push_back(std::move(server));
  }

  for (uint32_t w = 0; w < topo.workstation_count(); ++w) {
    const NodeId node = topo.NthWorkstation(w);
    auto ws = std::make_unique<virtue::Workstation>(
        node, &server_map_, HomeServerOf(w), network_.get(), config_.cost,
        config_.workstation, config_.seed ^ (0xa11ceull << 20) ^ w);
    ITC_CHECK(ws->InstallStandardLayout() == Status::kOk);
    workstations_.push_back(std::move(ws));
  }
}

ServerId Campus::HomeServerOf(uint32_t workstation_index) const {
  const net::Topology& topo = network_->topology();
  return topo.FirstServerIndexIn(topo.ClusterOfNthWorkstation(workstation_index));
}

Result<VolumeId> Campus::SetupRootVolume() {
  AccessList acl;
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup),
                  protection::kLookup | protection::kRead);
  acl.SetPositive(Principal::Group(protection::kAdministratorsGroup),
                  protection::kAllRights);
  ASSIGN_OR_RETURN(root_volume_,
                   registry_.CreateVolume("vice.root", /*custodian=*/0, kAnonymousUser,
                                          acl, /*quota_bytes=*/0));
  RETURN_IF_ERROR(registry_.SetRootVolume(root_volume_));

  // Standard top-level directories.
  vice::Volume* root = registry_.FindVolume(root_volume_);
  ITC_CHECK(root != nullptr);
  ASSIGN_OR_RETURN(Fid usr, root->MakeDir(root->root(), "usr", kAnonymousUser, acl));
  usr_dir_ = usr;
  RETURN_IF_ERROR(root->MakeDir(root->root(), "unix", kAnonymousUser, acl).status());
  // Direct mutations bypass the custodian's intention log; re-dump so the
  // standard layout survives a crash.
  RETURN_IF_ERROR(registry_.CheckpointVolume(root_volume_));
  return root_volume_;
}

Result<Campus::UserHome> Campus::AddUserWithHome(const std::string& name,
                                                 const std::string& password,
                                                 ServerId custodian, uint64_t quota_bytes) {
  ITC_CHECK(root_volume_ != kInvalidVolume);  // SetupRootVolume first
  ASSIGN_OR_RETURN(UserId user, protection_.CreateUser(name, password));

  AccessList acl;
  acl.SetPositive(Principal::User(user), protection::kAllRights);
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup),
                  protection::kLookup | protection::kRead);
  ASSIGN_OR_RETURN(VolumeId vol,
                   registry_.CreateVolume("user." + name, custodian, user, acl,
                                          quota_bytes));
  RETURN_IF_ERROR(registry_.MountAt(usr_dir_, name, vol));
  return UserHome{user, vol, "/usr/" + name};
}

Result<VolumeId> Campus::CreateSystemVolume(const std::string& name,
                                            const std::string& mount_path,
                                            ServerId custodian) {
  ITC_CHECK(root_volume_ != kInvalidVolume);
  AccessList acl;
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup),
                  protection::kLookup | protection::kRead);
  acl.SetPositive(Principal::Group(protection::kAdministratorsGroup),
                  protection::kAllRights);
  ASSIGN_OR_RETURN(VolumeId vol,
                   registry_.CreateVolume(name, custodian, kAnonymousUser, acl, 0));

  // Walk/create the mount path inside the root volume, then add the mount.
  vice::Volume* root = registry_.FindVolume(root_volume_);
  ITC_CHECK(root != nullptr);
  ASSIGN_OR_RETURN(Fid dir, EnsureDirDirect(root, std::string(Dirname(mount_path))));
  RETURN_IF_ERROR(registry_.MountAt(dir, std::string(Basename(mount_path)), vol));
  return vol;
}

Result<Fid> Campus::EnsureDirDirect(vice::Volume* vol, const std::string& path) {
  Fid cur = vol->root();
  for (const std::string& comp : SplitPath(path)) {
    ASSIGN_OR_RETURN(const vice::Volume::Vnode* d, vol->LookupDir(cur));
    auto it = d->entries.find(comp);
    if (it != d->entries.end()) {
      if (it->second.kind != vice::DirItem::Kind::kDirectory) return Status::kNotDirectory;
      cur = it->second.fid;
      continue;
    }
    auto acl = vol->EffectiveAcl(cur);
    if (!acl.ok()) return acl.status();
    // A copy: the new directory changes the volume the pointer points into.
    const protection::AccessList inherited = **acl;
    ASSIGN_OR_RETURN(cur, vol->MakeDir(cur, comp, kAnonymousUser, inherited));
  }
  return cur;
}

Status Campus::MkDirDirect(VolumeId volume, const std::string& path) {
  vice::Volume* vol = registry_.FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  RETURN_IF_ERROR(EnsureDirDirect(vol, path).status());
  // Direct mutation bypassed the file server: re-dump the durable image and
  // tell connected clients holding cached directories about it.
  RETURN_IF_ERROR(registry_.CheckpointVolume(volume));
  return registry_.BreakVolumeCallbacks(volume);
}

Status Campus::PopulateDirect(VolumeId volume, const std::string& path, const Bytes& data) {
  return PopulateDirect(volume, path, content::Ref::Canonicalize(data));
}

Status Campus::PopulateDirect(VolumeId volume, const std::string& path,
                              content::Ref contents) {
  std::vector<DirectFile> files;
  files.push_back({path, std::move(contents)});
  return PopulateDirect(volume, std::move(files));
}

Status Campus::PopulateDirect(VolumeId volume, std::vector<DirectFile> files) {
  vice::Volume* vol = registry_.FindVolume(volume);
  if (vol == nullptr) return Status::kNotFound;
  Status loaded = Status::kOk;
  for (DirectFile& file : files) {
    loaded = LoadFileDirect(vol, file.path, std::move(file.contents));
    if (loaded != Status::kOk) break;
  }
  // Direct loading bypassed the file server: checkpoint the durable image
  // once for the whole batch (including any files loaded before an error)
  // and break any promises so already-connected clients refetch.
  RETURN_IF_ERROR(registry_.CheckpointVolume(volume));
  RETURN_IF_ERROR(registry_.BreakVolumeCallbacks(volume));
  return loaded;
}

Status Campus::LoadFileDirect(vice::Volume* vol, const std::string& path,
                              content::Ref contents) {
  ASSIGN_OR_RETURN(Fid dir, EnsureDirDirect(vol, std::string(Dirname(path))));
  const std::string leaf(Basename(path));

  // Replace existing contents if the file is already there.
  ASSIGN_OR_RETURN(const vice::Volume::Vnode* d, vol->LookupDir(dir));
  Fid fid;
  auto it = d->entries.find(leaf);
  if (it != d->entries.end()) {
    fid = it->second.fid;
  } else {
    ASSIGN_OR_RETURN(fid, vol->CreateFile(dir, leaf, kAnonymousUser, 0644));
  }
  return vol->StoreRef(fid, std::move(contents));
}

uint64_t Campus::RetainedContentBytes() const {
  ITC_CHECK(sim::Kernel::Current() == nullptr);
  std::unordered_set<const void*> seen;
  uint64_t total = 0;
  for (const auto& server : servers_) total += server->RetainedContentBytes(&seen);
  for (const auto& ws : workstations_) total += ws->local_fs().RetainedContentBytes(&seen);
  return total;
}

void Campus::CrashServer(size_t i) {
  ITC_CHECK(sim::Kernel::Current() == nullptr);  // orchestration is quiescent-only
  ITC_CHECK(i < servers_.size());
  servers_[i]->SimulateCrash();
}

vice::recovery::RecoveryReport Campus::RestartServer(size_t i, SimTime at) {
  ITC_CHECK(sim::Kernel::Current() == nullptr);
  ITC_CHECK(i < servers_.size());
  return servers_[i]->Restart(at);
}

void Campus::PartitionServer(size_t i, SimTime from, SimTime until) {
  ITC_CHECK(i < servers_.size());
  network_->AddPartition({{servers_[i]->node()}, from, until});
}

void Campus::PartitionWorkstation(size_t w, SimTime from, SimTime until) {
  ITC_CHECK(w < workstations_.size());
  network_->AddPartition({{workstations_[w]->node()}, from, until});
}

void Campus::PartitionCluster(ClusterId cluster, SimTime from, SimTime until) {
  const net::Topology& topo = network_->topology();
  std::vector<NodeId> nodes;
  for (uint32_t s = 0; s < topo.server_count(); ++s) {
    if (topo.ClusterOf(topo.NthServer(s)) == cluster) nodes.push_back(topo.NthServer(s));
  }
  for (uint32_t w = 0; w < topo.workstation_count(); ++w) {
    const NodeId n = topo.NthWorkstation(w);
    if (topo.ClusterOf(n) == cluster) nodes.push_back(n);
  }
  network_->AddPartition({std::move(nodes), from, until});
}

rpc::CallStats Campus::TotalCallStats() const {
  rpc::CallStats total;
  for (const auto& server : servers_) total.Merge(server->endpoint().call_stats());
  return total;
}

std::map<vice::CallClass, uint64_t> Campus::TotalCallHistogram() const {
  return TotalCallStats().Histogram();
}

uint64_t Campus::TotalCalls() const { return TotalCallStats().total_calls(); }

void Campus::ResetAllStats() {
  ITC_CHECK(sim::Kernel::Current() == nullptr);
  for (auto& server : servers_) server->ResetStats();
  for (auto& ws : workstations_) ws->venus().ResetStats();
  network_->ResetStats();
}

}  // namespace itc::campus
