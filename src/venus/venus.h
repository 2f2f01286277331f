// Venus: the workstation cache manager (Sections 3.2, 3.5.1).
//
// "Virtue is implemented in two parts: a set of modifications to the
//  workstation operating system to intercept file requests, and a user-level
//  process, called Venus. Venus handles management of the cache,
//  communication with Vice and the emulation of native file system
//  primitives for Vice files."
//
// Venus caches entire files, their status, and custodianship information.
// On open it locates the custodian, fetches the file into the local cache if
// necessary, and hands the intercept layer a local path; reads and writes
// never touch Vice. On close of a dirty file the whole file is stored back
// to the custodian ("we have adopted this approach in order to simplify
// recovery from workstation crashes").
//
// Both client generations are supported via VenusConfig:
//   * check-on-open vs callback validation (and leases, a third scheme),
//   * server-side (prototype) vs client-side (revised) pathname traversal,
//   * count-limited vs space-limited cache.
//
// Paths given to Venus are Vice-internal: "/" is the root of the shared name
// space (the root volume's root directory). Virtue maps "/vice/..." here.

#ifndef SRC_VENUS_VENUS_H_
#define SRC_VENUS_VENUS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/fid.h"
#include "src/common/ownership.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/crypto/key.h"
#include "src/net/network.h"
#include "src/protection/access_list.h"
#include "src/rpc/rpc.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/unixfs/file_system.h"
#include "src/venus/config.h"
#include "src/venus/file_cache.h"
#include "src/venus/stats.h"
#include "src/vice/file_server.h"
#include "src/vice/lock_manager.h"
#include "src/vice/protocol.h"

namespace itc::venus {

// How workstations find Vice servers (in-process stand-in for network
// addressing: the ServerId -> endpoint directory).
using ServerMap = std::map<ServerId, vice::ViceServer*>;

class Venus : public vice::CallbackReceiver {
 public:
  Venus(NodeId node, sim::Clock* clock, unixfs::FileSystem* local_fs,
        const std::string& cache_dir, VenusConfig config, const ServerMap* servers,
        ServerId home_server, net::Network* network, const sim::CostModel& cost,
        uint64_t seed);
  ~Venus() override;

  Venus(const Venus&) = delete;
  Venus& operator=(const Venus&) = delete;

  // --- Session ---------------------------------------------------------------
  // Authenticates this workstation to Vice on behalf of `user`. The key is
  // derived from the user's password (crypto::DeriveKeyFromPassword); the
  // password itself never reaches Venus.
  ITC_KERNEL_ENTRY [[nodiscard]] Status Login(UserId user, const crypto::Key& user_key);
  // Ends the session: connections dropped, callback promises surrendered.
  // Cached data survives (revalidated on next use).
  ITC_KERNEL_ENTRY void Logout();
  ITC_KERNEL_QUIESCENT UserId user() const { return user_; }
  ITC_KERNEL_QUIESCENT bool logged_in() const { return user_ != kAnonymousUser; }

  // --- Whole-file open/close ---------------------------------------------------
  struct OpenResult {
    Fid fid;
    vice::VnodeStatus status;
    unixfs::InodeNum inode = 0;  // the cached copy in the local file system
  };

  // Opens a Vice file. for_write selects the read-write volume even when a
  // read-only replica exists. create makes the file (parent needs Insert).
  // The returned inode is the local file the caller reads/writes; the entry
  // stays pinned until Close.
  ITC_KERNEL_ENTRY [[nodiscard]] Result<OpenResult> Open(const std::string& path, bool for_write, bool create);

  // Closes an open file. If `dirty`, the cached copy is stored back to the
  // custodian immediately ("Virtue stores a file back when it is closed") —
  // or queued, under the deferred write-back policy.
  ITC_KERNEL_ENTRY [[nodiscard]] Status Close(const Fid& fid, bool dirty);

  // Deferred write-back only: stores every queued dirty file now. Called
  // automatically on logout and when the dirty queue fills.
  ITC_KERNEL_ENTRY [[nodiscard]] Status FlushDirty();
  ITC_KERNEL_QUIESCENT size_t dirty_count() const { return dirty_queue_.size(); }

  // Simulates a workstation crash: the session drops WITHOUT flushing
  // deferred writes — they are lost, which is precisely why the paper chose
  // store-on-close. (With the on-close policy nothing is pending to lose.)
  ITC_KERNEL_QUIESCENT void SimulateCrash();

  // --- Metadata and name space ---------------------------------------------------
  ITC_KERNEL_ENTRY [[nodiscard]] Result<vice::VnodeStatus> Stat(const std::string& path);
  // The directory's names, in order.
  ITC_KERNEL_ENTRY [[nodiscard]] Result<std::vector<std::string>> ReadDir(const std::string& path);
  ITC_KERNEL_ENTRY [[nodiscard]] Status MkDir(const std::string& path);
  ITC_KERNEL_ENTRY [[nodiscard]] Status Remove(const std::string& path);
  ITC_KERNEL_ENTRY [[nodiscard]] Status RmDir(const std::string& path);
  ITC_KERNEL_ENTRY [[nodiscard]] Status Rename(const std::string& from, const std::string& to);
  ITC_KERNEL_ENTRY [[nodiscard]] Status Symlink(const std::string& target, const std::string& link_path);
  ITC_KERNEL_ENTRY [[nodiscard]] Result<std::string> ReadLink(const std::string& path);
  ITC_KERNEL_ENTRY [[nodiscard]] Status SetMode(const std::string& path, uint16_t mode);

  ITC_KERNEL_ENTRY [[nodiscard]] Result<protection::AccessList> GetAcl(const std::string& path);
  ITC_KERNEL_ENTRY [[nodiscard]] Status SetAcl(const std::string& path, const protection::AccessList& acl);

  ITC_KERNEL_ENTRY [[nodiscard]] Status SetLock(const std::string& path, vice::LockMode mode);
  ITC_KERNEL_ENTRY [[nodiscard]] Status ReleaseLock(const std::string& path);

  // Quota/usage of the volume holding `path` (the `df` of the shared space;
  // quota enforcement is Section 3.6's "restrict and account for the usage
  // of shared resources").
  struct VolumeStatus {
    VolumeId volume = kInvalidVolume;
    uint64_t quota_bytes = 0;  // 0 = unlimited
    uint64_t usage_bytes = 0;
    bool read_only = false;
    bool online = true;
  };
  ITC_KERNEL_ENTRY [[nodiscard]] Result<VolumeStatus> GetVolumeStatus(const std::string& path);

  // --- Cache management ------------------------------------------------------------
  // Drops the entire cache (surrendering callback promises).
  ITC_KERNEL_QUIESCENT void FlushCache();
  ITC_KERNEL_QUIESCENT FileCache& cache() { return cache_; }
  ITC_KERNEL_QUIESCENT const VenusStats& stats() const { return stats_; }
  // Client-observed per-op round trips (recorded by the stub's tracing
  // interceptor, including retries).
  ITC_KERNEL_QUIESCENT const rpc::CallStats& call_stats() const { return call_stats_; }
  ITC_KERNEL_QUIESCENT void ResetStats();

  NodeId node() const { return node_; }

  // --- VFS escape hatch ------------------------------------------------------
  // Client-side traversal may meet an absolute symlink whose target lies
  // outside the shared name space (e.g. "/tmp/scratch" — Figure 3-2 in
  // reverse). The predicate decides whether a target escapes; when it does,
  // the walk stops, the unconsumed components are spliced onto the target,
  // and the call fails with kSymlinkEscape. The VFS switch collects the
  // rewritten workstation path with TakeEscapePath() and re-resolves it
  // against the mount table. Without a predicate every absolute target is
  // treated as Vice-internal (the pre-VFS behaviour). Server-side traversal
  // (the prototype) never escapes: the server has no notion of workstation
  // mounts.
  using EscapePredicate = std::function<bool(const std::string& target)>;
  void set_escape_predicate(EscapePredicate p) { escape_predicate_ = std::move(p); }
  // The rewritten path after a kSymlinkEscape failure; consumes it.
  ITC_KERNEL_ENTRY std::string TakeEscapePath() { return std::move(escape_path_); }

  // vice::CallbackReceiver:
  ITC_KERNEL_ENTRY void OnCallbackBroken(const Fid& fid) override;
  NodeId callback_node() const override { return node_; }

 private:
  struct ParentRef {
    Fid parent;        // directory containing the final component
    std::string leaf;  // final component name
  };

  // --- RPC plumbing -------------------------------------------------------------
  [[nodiscard]] Result<rpc::ClientConnection*> ConnectionTo(ServerId server);
  // A server provably restarted (epoch bump / broken connection): every
  // promise it held — open-ended callback or lease alike — died with its
  // volatile state. Mark every cache entry it supplied suspect so the next
  // use revalidates (check-on-open fallback).
  void MarkServerSuspect(ServerId server);
  // A server could not be reached (site down, link partition). Callback
  // promises must be distrusted (the server may have crashed and we cannot
  // tell); a lease keeps its own horizon — the server waits out unreachable
  // holders before completing writes, so trusting it until expiry is safe.
  void NoteServerUnreachable(ServerId server);
  // Both pass `bulk` to every attempt they make (rpc::ClientConnection::Call),
  // so it ends up holding the bulk of the reply they return.
  [[nodiscard]] Result<Bytes> CallServer(ServerId server, vice::Proc proc, const Bytes& request,
                                         std::optional<rpc::Bulk>* bulk = nullptr);
  // Calls the custodian (or nearest replica) for `fid`; transparently
  // refreshes stale location hints on kNotCustodian and retries once.
  [[nodiscard]] Result<Bytes> CallForFid(const Fid& fid, vice::Proc proc, const Bytes& request,
                                         std::optional<rpc::Bulk>* bulk = nullptr);

  // --- Location ---------------------------------------------------------------------
  [[nodiscard]] Result<VolumeId> RootVolume();
  // The cached location hint of `volume`, fetched first when there is none
  // or `refresh` is set. The hint stays in place until the next refresh of
  // the same volume or FlushCache.
  [[nodiscard]] Result<const vice::VolumeInfo*> VolumeInfoFor(VolumeId volume, bool refresh);
  // Server to contact for this volume: nearest read-only replica site for RO
  // volumes, else the custodian.
  [[nodiscard]] Result<ServerId> ServerFor(VolumeId volume);
  // Steps `*cursor` (0 to start) to the next server to try for the volume
  // `info` describes and returns it; kInvalidServer once none is left. A
  // read-only volume's replica sites come nearest first (the sites in our own
  // cluster, then the rest, each in stored order); any other volume has its
  // custodian alone. Read-only replication "enhances availability": when a
  // site is down, the next one is tried.
  ServerId NextServer(const vice::VolumeInfo& info, size_t* cursor) const;
  // Volume to traverse into: the released RO clone when one exists and the
  // access does not require write.
  [[nodiscard]] Result<VolumeId> ChooseVolume(VolumeId volume, bool for_update);

  // --- Resolution ---------------------------------------------------------------------
  // Resolves a path to its final fid. follow_final controls trailing-symlink
  // behaviour (lstat-style when false; client-side traversal only).
  [[nodiscard]] Result<Fid> ResolveFinal(const std::string& path, bool for_update, bool follow_final);
  // Resolves the directory containing a path's final component.
  [[nodiscard]] Result<ParentRef> ResolveParentOf(const std::string& path, bool for_update);
  // Drops one name_cache_ mapping. Keys are interned shared_ptrs and C++20
  // map::erase has no heterogeneous overload, so this goes through the
  // transparent find.
  void EraseNameMapping(std::string_view path);
  [[nodiscard]] Result<Fid> WalkClient(const std::string& path, bool for_update, bool follow_final);
  // Rebrands a fid resolved through a read-only clone back to its read-write
  // volume when the access requires write; identity otherwise. The walk
  // localizes every directory hop, so only the final object pays this.
  [[nodiscard]] Result<Fid> MapForUpdate(Fid fid, bool for_update);
  [[nodiscard]] Result<Fid> WalkServer(const std::string& path);

  // --- Cache validation (Section 3.2; docs/VALIDATION.md) ------------------------------
  // May the entry be used at `now` without contacting the server? Never
  // under check-on-open; while its callback promise holds under callbacks;
  // while its promise holds and its lease is unexpired under leases.
  bool Trusted(const CacheEntry& e, SimTime now) const;
  // Outcome of Revalidate: either the cached entry may be used (after
  // whatever round trips the scheme needed), or it is stale and the caller
  // must fetch. `fresh` is the server's current status when a call was made,
  // the entry's own status when it was trusted.
  struct CheckResult {
    bool usable = false;
    vice::VnodeStatus fresh;
  };
  // Establishes whether the cached entry for `fid` (which must exist) is
  // current. A trusted entry costs nothing, except that under leases an
  // aging lease first renews every aging lease from its server. Otherwise
  // one Validate asks the server, which also registers a fresh promise. On
  // usable=true the entry has been stamped trusted; on usable=false its data
  // is stale.
  [[nodiscard]] Result<CheckResult> Revalidate(const Fid& fid, SimTime now);
  // Renews, in one batched call, every live lease from `origin` that expires
  // within kLeaseRenewMargin. Best effort: if the server is unreachable the
  // leases simply keep their current horizon (that bound is the whole
  // point), and no retry happens within the same margin window, so a
  // partition costs at most one timeout per window, not one per open.
  void RenewAging(const Fid& trigger, ServerId origin, SimTime now);
  // The lease a reply granted (0: none) becomes the entry's trust horizon.
  void TakeLease(CacheEntry& e, SimTime expiry);

  // --- Cache core ------------------------------------------------------------------------
  // Ensures a valid cached copy of `fid`'s data (fetching or validating as
  // the configuration demands); returns the entry. `hit` reports whether a
  // Fetch was avoided.
  [[nodiscard]] Result<CacheEntry*> EnsureData(const Fid& fid, bool* hit);
  // Ensures valid cached status for `fid`.
  [[nodiscard]] Result<vice::VnodeStatus> EnsureStatus(const Fid& fid);
  // The name index of directory `dir`'s cached data (fetched or validated
  // as above), charged as one local read of the directory: what a walk step
  // and ReadDir read. It lives in the cache entry, so use it before the
  // next call that may replace or evict that entry.
  [[nodiscard]] Result<const vice::DirIndex*> DirIndexOf(const Fid& dir);
  void DropEvicted(const std::vector<Fid>& evicted);
  void InvalidateDir(const Fid& dir);
  // Stores the cached copy of `fid` to its custodian now.
  [[nodiscard]] Status StoreBack(const Fid& fid);

  // --- RPC wrappers -------------------------------------------------------------------------
  // A Fetch or FetchStatus reply: the status, and under leases the expiry
  // of the lease it granted (0: none).
  struct Fetched {
    vice::VnodeStatus status;
    SimTime lease_expiry = 0;
  };
  [[nodiscard]] Result<Fetched> RpcFetch(const Fid& fid, content::Ref* data);
  [[nodiscard]] Result<Fetched> RpcFetchStatus(const Fid& fid);
  [[nodiscard]] Result<vice::VnodeStatus> RpcStore(const Fid& fid, const Bytes& data);

  NodeId node_;
  sim::Clock* clock_;
  unixfs::FileSystem* local_fs_;
  VenusConfig config_;
  const ServerMap* servers_;
  ServerId home_server_;
  net::Network* network_;
  sim::CostModel cost_;
  uint64_t seed_;

  ITC_OWNED_BY_SHARD UserId user_ = kAnonymousUser;
  crypto::Key user_key_;
  ITC_OWNED_BY_SHARD std::map<ServerId, std::unique_ptr<rpc::ClientConnection>> connections_;
  // Last restart epoch observed per server (ProbeEpoch on each fresh
  // connection, callbacks only). A bump between connections means the
  // server crashed while we were not looking.
  ITC_OWNED_BY_SHARD std::map<ServerId, uint32_t> server_epochs_;
  // Server that answered the most recent successful call (stamps the cache
  // entry it produced).
  ITC_OWNED_BY_SHARD ServerId last_contacted_ = kInvalidServer;
  // Last lease renewal attempt per server (throttles retries under
  // partition).
  ITC_OWNED_BY_SHARD std::map<ServerId, SimTime> lease_renew_attempts_;

  ITC_OWNED_BY_SHARD FileCache cache_;
  ITC_OWNED_BY_SHARD std::map<VolumeId, vice::VolumeInfo> volume_hints_;
  ITC_OWNED_BY_SHARD VolumeId root_volume_ = kInvalidVolume;
  // Prototype name cache: full Vice path -> fid (filled by ResolvePath).
  // Keys are interned through content::StringInterner — thousands of Venus
  // instances cache the same "/unix/..." paths, so each distinct path costs
  // one heap string campus-wide instead of one per client. The comparator is
  // transparent so lookups take a string_view without allocating.
  struct InternedPathLess {
    using is_transparent = void;
    bool operator()(const std::shared_ptr<const std::string>& a,
                    const std::shared_ptr<const std::string>& b) const {
      return *a < *b;
    }
    bool operator()(const std::shared_ptr<const std::string>& a, std::string_view b) const {
      return *a < b;
    }
    bool operator()(std::string_view a, const std::shared_ptr<const std::string>& b) const {
      return a < *b;
    }
  };
  ITC_OWNED_BY_SHARD std::map<std::shared_ptr<const std::string>, Fid, InternedPathLess>
      name_cache_;
  // Deferred write-back queue (insertion order; duplicates coalesce).
  ITC_OWNED_BY_SHARD std::vector<Fid> dirty_queue_;

  EscapePredicate escape_predicate_;
  ITC_OWNED_BY_SHARD std::string escape_path_;

  ITC_OWNED_BY_SHARD VenusStats stats_;
  ITC_OWNED_BY_SHARD rpc::CallStats call_stats_;
};

}  // namespace itc::venus

#endif  // SRC_VENUS_VENUS_H_
