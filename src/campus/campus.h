// Campus: a complete simulated deployment of Vice and Virtue.
//
// Builds Figure 2-2 end to end: a backbone network of clusters, one or more
// Vice cluster servers per cluster, the protection service with a replica at
// every server, the volume registry with the replicated location database,
// and a population of Virtue workstations (each with its own local file
// system, clock, and Venus). Tests, examples, and every bench harness start
// from a Campus.

#ifndef SRC_CAMPUS_CAMPUS_H_
#define SRC_CAMPUS_CAMPUS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/content.h"
#include "src/common/ownership.h"
#include "src/common/result.h"
#include "src/net/network.h"
#include "src/protection/protection_service.h"
#include "src/rpc/rpc.h"
#include "src/sim/cost_model.h"
#include "src/venus/venus.h"
#include "src/vice/file_server.h"
#include "src/vice/volume_registry.h"
#include "src/virtue/workstation.h"

namespace itc::campus {

struct CampusConfig {
  net::TopologyConfig topology;
  sim::CostModel cost = sim::CostModel::Default1985();
  rpc::RpcConfig rpc;
  vice::ViceConfig vice;
  virtue::WorkstationConfig workstation;
  uint64_t seed = 42;

  // The revised (post-prototype) system, as the paper specifies it.
  static CampusConfig Revised(uint32_t clusters, uint32_t workstations_per_cluster);
  // The prototype measured in Section 5: stream RPC, process-per-client
  // servers, server-side pathnames, check-on-open validation, count-limited
  // cache.
  static CampusConfig Prototype(uint32_t clusters, uint32_t workstations_per_cluster);

  // Selects the cache-validation scheme on both sides of the wire: Venus
  // and every Vice server must agree (docs/VALIDATION.md).
  CampusConfig& UseValidation(vice::Validation scheme);
};

class Campus {
 public:
  explicit Campus(CampusConfig config);

  const CampusConfig& config() const { return config_; }
  net::Network& network() { return *network_; }
  const net::Topology& topology() const { return network_->topology(); }
  protection::ProtectionService& protection() { return protection_; }
  vice::VolumeRegistry& registry() { return registry_; }

  size_t server_count() const { return servers_.size(); }
  vice::ViceServer& server(size_t i) { return *servers_[i]; }
  size_t workstation_count() const { return workstations_.size(); }
  virtue::Workstation& workstation(size_t i) { return *workstations_[i]; }
  const venus::ServerMap& server_map() const { return server_map_; }

  // --- Environment setup -------------------------------------------------------

  // Creates the root volume (custodian: server 0) with a world-readable,
  // administrator-writable root directory, and registers it as the root of
  // the shared name space.
  [[nodiscard]] Result<VolumeId> SetupRootVolume();

  // Creates a user and a home volume mounted at /usr/<name>. The access
  // list grants the user everything and System:AnyUser lookup+read.
  struct UserHome {
    UserId user;
    VolumeId volume;
    std::string vice_path;  // "/usr/<name>"
  };
  [[nodiscard]] Result<UserHome> AddUserWithHome(const std::string& name, const std::string& password,
                                   ServerId custodian, uint64_t quota_bytes = 0);

  // Creates a system volume mounted at `mount_path` (e.g. "/unix/sun"),
  // world-readable, administrator-writable.
  [[nodiscard]] Result<VolumeId> CreateSystemVolume(const std::string& name,
                                      const std::string& mount_path, ServerId custodian);

  // --- Direct (zero-cost) population -----------------------------------------------
  // Administrative loading of files into a volume, bypassing RPC and cost
  // accounting; used to pre-populate system trees before an experiment.
  // Each `path` is relative to the volume root, intermediate directories are
  // created with the root directory's ACL, and an existing file is replaced.
  // Contents are content refs, never materialized on the host: population
  // of a 10k-workstation campus stays cheap because a generative ref is ~32
  // bytes regardless of file size.
  struct DirectFile {
    std::string path;
    content::Ref contents;
  };
  // Loads the files in order, then checkpoints the volume and breaks its
  // callbacks once for the whole batch. A file that fails to load stops the
  // batch and its error is returned, but only after the files loaded before
  // it have been checkpointed and their callbacks broken.
  [[nodiscard]] Status PopulateDirect(VolumeId volume, std::vector<DirectFile> files);
  // One-file batches; the Bytes overload canonicalizes `data` into a ref.
  [[nodiscard]] Status PopulateDirect(VolumeId volume, const std::string& path, const Bytes& data);
  [[nodiscard]] Status PopulateDirect(VolumeId volume, const std::string& path,
                                      content::Ref contents);
  [[nodiscard]] Status MkDirDirect(VolumeId volume, const std::string& path);

  // Home server of a workstation: the first server in its own cluster.
  ServerId HomeServerOf(uint32_t workstation_index) const;

  // --- Crash orchestration -----------------------------------------------------
  // Kills server `i` (volatile state lost; stable store survives) and brings
  // it back at virtual time `at`. See ViceServer::SimulateCrash / Restart.
  ITC_KERNEL_QUIESCENT void CrashServer(size_t i);
  ITC_KERNEL_QUIESCENT vice::recovery::RecoveryReport RestartServer(size_t i, SimTime at);

  // --- Partition orchestration -------------------------------------------------
  // Cuts server `i` off from the rest of the campus for [from, until); the
  // link heals by the passage of virtual time alone (deterministic).
  ITC_KERNEL_QUIESCENT void PartitionServer(size_t i, SimTime from, SimTime until);
  // Cuts workstation `w` (and only it) off from the campus for [from, until).
  ITC_KERNEL_QUIESCENT void PartitionWorkstation(size_t w, SimTime from, SimTime until);
  // Cuts an entire cluster (its servers and workstations keep talking to
  // each other, but the backbone link is down) for [from, until).
  ITC_KERNEL_QUIESCENT void PartitionCluster(ClusterId cluster, SimTime from, SimTime until);

  // Aggregated per-op CallStats across all servers (counts, bytes, latency
  // histograms — recorded by the RPC tracing interceptor).
  // Host bytes actually retained for file contents across the whole campus:
  // every server's volumes and stable store plus every workstation's local
  // file system (which holds the Venus cache copies). Buffers shared through
  // the content store are counted once. Memory diagnostics, not simulation
  // state.
  ITC_KERNEL_QUIESCENT uint64_t RetainedContentBytes() const;

  rpc::CallStats TotalCallStats() const;
  // The Section 5.2 call-class collapse of TotalCallStats().
  std::map<vice::CallClass, uint64_t> TotalCallHistogram() const;
  uint64_t TotalCalls() const;
  ITC_KERNEL_QUIESCENT void ResetAllStats();

 private:
  [[nodiscard]] Result<Fid> EnsureDirDirect(vice::Volume* vol, const std::string& path);
  [[nodiscard]] Status LoadFileDirect(vice::Volume* vol, const std::string& path,
                                      content::Ref contents);

  CampusConfig config_;
  std::unique_ptr<net::Network> network_;
  protection::ProtectionService protection_;
  std::vector<std::unique_ptr<vice::ViceServer>> servers_;
  venus::ServerMap server_map_;
  vice::VolumeRegistry registry_;
  std::vector<std::unique_ptr<virtue::Workstation>> workstations_;
  VolumeId root_volume_ = kInvalidVolume;
  Fid usr_dir_ = kNullFid;  // /usr directory in the root volume
};

}  // namespace itc::campus

#endif  // SRC_CAMPUS_CAMPUS_H_
