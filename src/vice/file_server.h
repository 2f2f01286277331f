// The Vice cluster server (Sections 3, 5).
//
// A ViceServer is one cluster server: an RPC endpoint, the volumes it is
// custodian for (plus read-only replicas it hosts), a table of cache
// promises, a lock manager, a replica of the protection database, and a
// snapshot of the location database. It implements the Vice-Virtue
// interface of src/vice/protocol.h and enforces protection on every call —
// workstations are never trusted (Section 2.3).
//
// ViceConfig selects prototype vs revised behaviour:
//   * server_side_pathnames — the prototype's full-pathname interface
//     (Venus sends ResolvePath; the server pays per-component CPU),
//   * admin_status_files — the prototype's two-Unix-files-per-Vice-file
//     representation (extra disk op on data operations),
//   * validation — the cache validation scheme: no promises (Venus
//     validates on every open), callbacks (the revised
//     invalidate-on-modification scheme), or leases,
//   * per_file_protection_bits — the revised hybrid protection scheme.

#ifndef SRC_VICE_FILE_SERVER_H_
#define SRC_VICE_FILE_SERVER_H_

#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "src/common/ownership.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/net/network.h"
#include "src/protection/protection_service.h"
#include "src/rpc/rpc.h"
#include "src/sim/cost_model.h"
#include "src/vice/callback_manager.h"
#include "src/vice/location_db.h"
#include "src/vice/lock_manager.h"
#include "src/vice/protocol.h"
#include "src/vice/recovery/stable_store.h"
#include "src/vice/volume.h"

namespace itc::vice {

// The lease term. This is the one place the duration may be spelled as a
// literal (the no-raw-lease-term lint rule pins every other site to this
// constant). Gray & Cheriton found short terms (tens of seconds) close to
// optimal: long enough to cover a burst of opens, short enough that recovery
// and partition staleness stay bounded.
inline constexpr SimTime kLeaseTerm = Seconds(30);

struct ViceConfig {
  bool server_side_pathnames = false;
  bool admin_status_files = false;
  // Under callbacks and leases, Fetch/FetchStatus/Validate register a
  // promise for the caller, and mutations break everyone else's. Under
  // leases the promise lasts kLeaseTerm, the reply carries its expiry, and a
  // restarted server refuses promises for one term instead of relying on
  // epoch probes.
  Validation validation = Validation::kCallbacks;
  bool per_file_protection_bits = true;
  // Re-dump volumes and truncate the intention log after this many committed
  // intentions (0 = never); bounds recovery time and modeled log space.
  uint32_t log_checkpoint_interval = 64;
};

// Prototype configuration in one call.
inline ViceConfig PrototypeViceConfig() {
  return ViceConfig{/*server_side_pathnames=*/true, /*admin_status_files=*/true,
                    /*validation=*/Validation::kCheckOnOpen,
                    /*per_file_protection_bits=*/false};
}

class ViceServer {
 public:
  ViceServer(ServerId id, NodeId node, net::Network* network, const sim::CostModel& cost,
             rpc::RpcConfig rpc_config, ViceConfig config,
             protection::ProtectionService* protection, uint64_t nonce_seed);

  ServerId id() const { return id_; }
  NodeId node() const { return node_; }
  net::Network* network() const { return network_; }
  const sim::CostModel& cost() const { return cost_; }
  rpc::ServerEndpoint& endpoint() { return endpoint_; }
  const rpc::ServerEndpoint& endpoint() const { return endpoint_; }
  const ViceConfig& config() const { return config_; }
  // Callback promises and leases alike.
  CallbackManager& callbacks() { return callbacks_; }
  LockManager& locks() { return locks_; }
  protection::Replica& protection_replica() { return protection_replica_; }

  // --- Volume management (driven by the VolumeRegistry) ---------------------
  ITC_KERNEL_QUIESCENT void InstallVolume(std::unique_ptr<Volume> volume);
  ITC_KERNEL_QUIESCENT std::unique_ptr<Volume> EjectVolume(VolumeId id);
  Volume* FindVolume(VolumeId id);
  const Volume* FindVolume(VolumeId id) const;
  ITC_KERNEL_QUIESCENT size_t volume_count() const { return volumes_.size(); }
  // Host bytes retained for file contents across live volumes, checkpoint
  // images, and log records; buffers shared between them (snapshots, clones,
  // interned tails) count once per `seen` set. Memory accounting only; takes
  // every due checkpoint first, so the images counted are the ones requested.
  ITC_KERNEL_QUIESCENT uint64_t RetainedContentBytes(std::unordered_set<const void*>* seen);

  void SetLocationSnapshot(std::shared_ptr<const LocationDb> snapshot) {
    location_ = std::move(snapshot);
  }
  const LocationDb* location() const { return location_.get(); }

  // --- Crash recovery (src/vice/recovery) -----------------------------------
  // Requests a fresh durable image of one volume; admin paths that mutate a
  // volume directly (bypassing the logged RPC handlers) must call this or the
  // mutation would not survive a crash. InstallVolume requests one too. The
  // image is the volume as of this call, its clock included, but the
  // snapshot is taken when first needed: before the volume's next logged
  // intention, before a periodic checkpoint charges the images, before a
  // crash, and before stable_store() or RetainedContentBytes reads the
  // store. Until then the volume does not change (RPC mutations log an
  // intention first, admin paths request again), so the deferred snapshot
  // equals the one this call would have taken, and a set-up that mounts N
  // homes under /usr copies the root volume once, not N times.
  ITC_KERNEL_QUIESCENT void CheckpointVolume(VolumeId id);

  // Kills the server: the endpoint goes offline and every piece of volatile
  // state — callback promises, advisory locks, connections, registered
  // sinks, the in-memory volumes themselves — is dropped. Only the
  // StableStore (checkpoint images + intention log) survives.
  ITC_KERNEL_QUIESCENT void SimulateCrash();

  // Brings a crashed server back at virtual time `at`: restores volumes from
  // their checkpoint images, replays committed intentions in LSN order,
  // discards uncommitted/aborted ones (the client never saw a reply for
  // them; §3.5 store-on-close atomicity), salvages every volume, truncates
  // the log, and bumps the restart epoch. Recovery I/O is served through the
  // server disk, so RecoveryReport::recovery_time is real queueing time and
  // early RPCs after restart queue behind it.
  ITC_KERNEL_QUIESCENT recovery::RecoveryReport Restart(SimTime at);

  ITC_KERNEL_QUIESCENT bool crashed() const { return crashed_; }
  ITC_KERNEL_QUIESCENT uint32_t restart_epoch() const { return restart_epoch_; }
  // The durable state, with every due checkpoint taken.
  ITC_KERNEL_QUIESCENT recovery::StableStore& stable_store();

  // --- Callback delivery ------------------------------------------------------
  // Venus instances register out-of-band so the server can notify the right
  // in-process object for a given workstation node (the simulated wire
  // carries only the node id).
  ITC_KERNEL_QUIESCENT void RegisterCallbackSink(NodeId node, CallbackReceiver* sink);
  ITC_KERNEL_QUIESCENT void UnregisterCallbackSink(NodeId node);

  // --- Statistics ---------------------------------------------------------------
  // Derived from the endpoint's CallStats (recorded by the RPC tracing
  // interceptor; src/rpc/call_stats.h).
  ITC_KERNEL_QUIESCENT std::map<CallClass, uint64_t> CallHistogram() const;
  ITC_KERNEL_QUIESCENT uint64_t total_calls() const;
  ITC_KERNEL_QUIESCENT void ResetStats();

  // Long-term access pattern accounting (Section 3.6: "monitoring tools ...
  // to recognize long-term changes in user access patterns and help
  // reassign users to cluster servers"): per volume, how many data/status
  // accesses arrived from each cluster.
  using VolumeAccessMap = std::map<VolumeId, std::map<ClusterId, uint64_t>>;
  ITC_KERNEL_QUIESCENT const VolumeAccessMap& volume_accesses() const { return volume_accesses_; }

 private:
  // Binds every Proc's handler into registry_ against ViceOpSchema(). Each
  // binding runs the shared prologue (volume clock stamp + the prototype's
  // server-side pathname charge) before the handler body.
  ITC_KERNEL_ENTRY void BindOps();
  // Returns the effective rights `user` holds on the directory governing
  // `fid` in `vol`. Administrators hold all rights.
  protection::Rights EffectiveRights(const Volume& vol, const Fid& fid, UserId user) const;

  // Protection gate: kPermissionDenied unless the user holds `needed` on the
  // governing directory. Also applies per-file bits when configured.
  [[nodiscard]] Status CheckAccess(const Volume& vol, const Fid& fid, UserId user,
                     protection::Rights needed) const;
  [[nodiscard]] Status CheckFileBits(const Volume& vol, const Fid& fid, bool write) const;

  [[nodiscard]] Result<Volume*> VolumeFor(const Fid& fid, rpc::CallContext& ctx, rpc::Writer& reply);

  // The caller's registered sink, or null.
  CallbackReceiver* SinkOf(NodeId client) const;
  // Invalidation fan-out before a mutation commits: breaks every other
  // holder's promise on `fid`, and holds the call's completion back until
  // every unreachable holder's lease has run out.
  void BreakPromises(const Fid& fid, rpc::CallContext& ctx);
  // Promises the caller to notify it before `fid` changes (nothing under
  // check-on-open). Under leases the promise is granted only to a `current`
  // copy and its expiry (0: none granted) is appended to `reply`; a reply
  // that cannot carry it (null) grants no lease.
  void RegisterPromise(const Fid& fid, rpc::CallContext& ctx, rpc::Writer* reply,
                       bool current = true);
  void ChargeAdminFile(rpc::CallContext& ctx);
  void NoteVolumeAccess(VolumeId volume, NodeId client);

  // --- Intention-log plumbing used by the mutating handlers -----------------
  // Polls the fault injector for an armed crash at `point`. On a hit the
  // server crashes (SimulateCrash) and this returns true; the handler must
  // return Status::kUnavailable immediately without touching any server
  // state — its `vol` pointer and parsed fids are dead.
  bool CrashPointHit(rpc::CrashPoint point);
  // Appends an intention (state kLogged), charging the log write to ctx.
  uint64_t LogIntention(rpc::CallContext& ctx, recovery::IntentKind kind, VolumeId volume,
                        Bytes payload);
  // Store overload: the record carries `contents` by reference (shared with
  // the vnode), but the disk charge is the logical record size — identical
  // to what the byte-copying encoding measured.
  uint64_t LogIntention(rpc::CallContext& ctx, VolumeId volume, const Fid& fid,
                        content::Ref contents);
  // Marks `lsn` committed (fsync charge) and checkpoints every volume once
  // log_checkpoint_interval committed intentions have accumulated.
  void CommitIntention(rpc::CallContext& ctx, uint64_t lsn);
  void AbortIntention(uint64_t lsn);
  // Takes the due checkpoint of volume `id` (if any), or of every due
  // volume, as of its request (CheckpointVolume).
  void SettleCheckpoint(VolumeId id);
  void SettleCheckpoints();

  // Handlers. Read-only handlers return the reply bytes directly; mutating
  // handlers return Result<Bytes> so an armed crash point can abort the call
  // at the transport level (the reply is never built, as if the machine
  // died mid-operation).
  Bytes HandleGetVolumeInfo(rpc::CallContext& ctx, rpc::Reader& r);
  Bytes HandleGetRootVolume(rpc::CallContext& ctx);
  Bytes HandleFetch(rpc::CallContext& ctx, rpc::Reader& r, bool with_data);
  Bytes HandleValidate(rpc::CallContext& ctx, rpc::Reader& r);
  [[nodiscard]] Result<Bytes> HandleStore(rpc::CallContext& ctx, rpc::Reader& r);
  [[nodiscard]] Result<Bytes> HandleSetStatus(rpc::CallContext& ctx, rpc::Reader& r);
  [[nodiscard]] Result<Bytes> HandleCreate(rpc::CallContext& ctx, rpc::Reader& r, Proc proc);
  [[nodiscard]] Result<Bytes> HandleRemove(rpc::CallContext& ctx, rpc::Reader& r, bool dir);
  [[nodiscard]] Result<Bytes> HandleRename(rpc::CallContext& ctx, rpc::Reader& r);
  [[nodiscard]] Result<Bytes> HandleMakeMountPoint(rpc::CallContext& ctx, rpc::Reader& r);
  Bytes HandleResolvePath(rpc::CallContext& ctx, rpc::Reader& r);
  Bytes HandleGetAcl(rpc::CallContext& ctx, rpc::Reader& r);
  [[nodiscard]] Result<Bytes> HandleSetAcl(rpc::CallContext& ctx, rpc::Reader& r);
  Bytes HandleLock(rpc::CallContext& ctx, rpc::Reader& r, bool acquire);
  Bytes HandleRemoveCallback(rpc::CallContext& ctx, rpc::Reader& r);
  Bytes HandleRenewLeases(rpc::CallContext& ctx, rpc::Reader& r);
  Bytes HandleGetVolumeStatus(rpc::CallContext& ctx, rpc::Reader& r);

  ServerId id_;
  NodeId node_;
  net::Network* network_;
  sim::CostModel cost_;
  ViceConfig config_;
  rpc::OpRegistry registry_;
  rpc::ServerEndpoint endpoint_;
  protection::Replica protection_replica_;
  ITC_OWNED_BY_SHARD std::map<VolumeId, std::unique_ptr<Volume>> volumes_;
  std::shared_ptr<const LocationDb> location_;
  CallbackManager callbacks_;
  LockManager locks_;
  ITC_OWNED_BY_SHARD std::unordered_map<NodeId, CallbackReceiver*> callback_sinks_;
  ITC_OWNED_BY_SHARD VolumeAccessMap volume_accesses_;
  ITC_OWNED_BY_SHARD SimTime now_ = 0;  // arrival time of the call being dispatched
  // Durable state: survives SimulateCrash; everything above does not.
  recovery::StableStore store_;
  ITC_OWNED_BY_SHARD uint32_t restart_epoch_ = 0;
  ITC_OWNED_BY_SHARD bool crashed_ = false;
  ITC_OWNED_BY_SHARD uint32_t committed_since_checkpoint_ = 0;
  // Volumes with a logged intention since their last image dump. Periodic
  // checkpoints re-dump only these: a volume that logged no intention has
  // not mutated (the intention-before-mutate lint rule enforces this), so
  // its stored image is byte-identical to what a fresh Dump would produce.
  // The simulated checkpoint disk charge still covers all images.
  ITC_OWNED_BY_SHARD std::set<VolumeId> dirty_volumes_;
  // Volumes whose image was requested but not yet taken, each with its
  // volume clock at the request (FindVolume keeps advancing the clock; the
  // image records the requested one).
  ITC_OWNED_BY_SHARD std::map<VolumeId, SimTime> due_checkpoints_;
  // CPS memoization keyed by protection-database version: CheckAccess runs
  // on every call, and the recursive group closure need not be recomputed
  // until the replicated database actually changes.
  mutable std::map<UserId, std::pair<uint64_t, std::vector<protection::Principal>>>
      cps_cache_;
};

}  // namespace itc::vice

#endif  // SRC_VICE_FILE_SERVER_H_
