#include "src/venus/venus.h"

#include <algorithm>

#include "src/common/content.h"
#include "src/common/logging.h"
#include "src/common/path.h"
#include "src/rpc/wire.h"

namespace itc::venus {

using vice::DirItem;
using vice::Proc;
using vice::VnodeStatus;
using vice::VolumeInfo;

Venus::Venus(NodeId node, sim::Clock* clock, unixfs::FileSystem* local_fs,
             const std::string& cache_dir, VenusConfig config, const ServerMap* servers,
             ServerId home_server, net::Network* network, const sim::CostModel& cost,
             uint64_t seed)
    : node_(node),
      clock_(clock),
      local_fs_(local_fs),
      config_(config),
      servers_(servers),
      home_server_(home_server),
      network_(network),
      cost_(cost),
      seed_(seed),
      cache_(local_fs, cache_dir, config) {
  ITC_CHECK(clock_ != nullptr && local_fs_ != nullptr && servers_ != nullptr &&
            network_ != nullptr);
  policy_ = validation::MakeValidationPolicy(this);
}

Venus::~Venus() { Logout(); }

// --- Session ---------------------------------------------------------------------

Status Venus::Login(UserId user, const crypto::Key& user_key) {
  if (logged_in()) Logout();
  user_ = user;
  user_key_ = user_key;
  // Authenticate to the home cluster server immediately; other connections
  // are made lazily as custodians are contacted.
  auto conn = ConnectionTo(home_server_);
  if (!conn.ok()) {
    user_ = kAnonymousUser;
    return conn.status();
  }
  return Status::kOk;
}

void Venus::Logout() {
  // Deferred writes must not outlive the session: flush, and drop whatever
  // could not be stored (it must never be replayed under the NEXT user's
  // credentials).
  if (!dirty_queue_.empty()) (void)FlushDirty();
  for (const Fid& fid : dirty_queue_) {
    CacheEntry* e = cache_.Find(fid);
    if (e != nullptr) e->dirty = false;
  }
  dirty_queue_.clear();
  // Surrender callback sinks everywhere, not just where a connection is
  // currently open: a server whose connection dropped mid-session may still
  // hold our sink pointer.
  for (const auto& [sid, vs] : *servers_) vs->UnregisterCallbackSink(node_);
  connections_.clear();
  // Without connections (and with promises surrendered) nothing cached can
  // be trusted until revalidated.
  cache_.InvalidateAll();
  user_ = kAnonymousUser;
  root_volume_ = kInvalidVolume;
}

// --- RPC plumbing -----------------------------------------------------------------

Result<rpc::ClientConnection*> Venus::ConnectionTo(ServerId server) {
  if (!logged_in()) return Status::kAuthFailed;
  auto it = connections_.find(server);
  if (it != connections_.end()) return it->second.get();

  auto sit = servers_->find(server);
  if (sit == servers_->end()) return Status::kUnavailable;
  vice::ViceServer* vs = sit->second;

  ASSIGN_OR_RETURN(
      auto conn,
      rpc::ClientConnection::Connect(node_, user_, user_key_, &vs->endpoint(), network_,
                                     cost_, clock_,
                                     seed_ ^ (static_cast<uint64_t>(server) << 32) ^
                                         static_cast<uint64_t>(clock_->now()),
                                     rpc::ClientOptions{&vice::ViceOpSchema(),
                                                        &call_stats_}));
  vs->RegisterCallbackSink(node_, this);
  rpc::ClientConnection* raw = conn.get();
  connections_[server] = std::move(conn);

  // Restart detection, only for schemes whose promises are open-ended
  // (check-on-open never trusts a promise; leases expire on their own).
  // Callback state is volatile at the server, so a fresh connection asks for
  // the restart epoch; a bump since the last one we saw means the server
  // crashed and every promise it held for us died with it.
  if (policy_->WantsEpochProbe()) {
    auto epoch_reply = raw->Call(static_cast<uint32_t>(Proc::kProbeEpoch), Bytes{});
    if (epoch_reply.ok()) {
      rpc::Reader r(*epoch_reply);
      Status st = Status::kOk;
      if (r.ReadStatus(&st) == Status::kOk && st == Status::kOk) {
        if (auto epoch = r.U32(); epoch.ok()) {
          auto known = server_epochs_.find(server);
          if (known != server_epochs_.end() && known->second != *epoch) {
            MarkServerSuspect(server);
          }
          server_epochs_[server] = *epoch;
        }
      }
    }
  }
  return raw;
}

void Venus::MarkServerSuspect(ServerId server) {
  stats_.suspect_marks += 1;
  for (const Fid& fid : cache_.CachedFids()) {
    CacheEntry* e = cache_.Find(fid);
    if (e == nullptr || e->origin_server != server) continue;
    // Every promise the server held for us died with its volatile state —
    // leases included: a restarted server has forgotten the grant, so
    // trusting the entry until its old expiry would read stale data the
    // embargoed server can no longer protect.
    e->lease_expiry = 0;
    // Dirty entries stay trusted: the local copy IS the newest version and
    // will be stored back; everything else revalidates before next use.
    if (!e->dirty) e->valid = false;
  }
}

void Venus::NoteServerUnreachable(ServerId server) {
  if (config_.validation == VenusConfig::Validation::kLeases) {
    // Mere unreachability does not void a lease: the server — crashed or
    // partitioned — will not complete a conflicting write before our expiry
    // (restart embargo covers the crash case). Bounded staleness until then
    // is the availability the scheme buys.
    return;
  }
  MarkServerSuspect(server);
}

Result<Bytes> Venus::CallServer(ServerId server, Proc proc, const Bytes& request,
                                std::optional<rpc::Bulk>* bulk) {
  ASSIGN_OR_RETURN(rpc::ClientConnection * conn, ConnectionTo(server));
  auto reply = conn->Call(static_cast<uint32_t>(proc), request, bulk);
  if (reply.status() == Status::kConnectionBroken) {
    // The server no longer knows this connection — it restarted and its
    // connection table (volatile state) died with it. The call was never
    // executed, so a single re-handshake and retry is safe for any op; the
    // fresh connection's epoch probe marks everything the server supplied
    // as suspect.
    connections_.erase(server);
    if (auto sit = servers_->find(server); sit != servers_->end()) {
      sit->second->UnregisterCallbackSink(node_);
    }
    MarkServerSuspect(server);
    ASSIGN_OR_RETURN(conn, ConnectionTo(server));
    reply = conn->Call(static_cast<uint32_t>(proc), request, bulk);
  }
  if (reply.ok()) last_contacted_ = server;
  return reply;
}

Result<Bytes> Venus::CallForFid(const Fid& fid, Proc proc, const Bytes& request,
                                std::optional<rpc::Bulk>* bulk) {
  ASSIGN_OR_RETURN(std::vector<ServerId> candidates, ServerCandidates(fid.volume));

  Status transport_failure = Status::kUnavailable;
  for (ServerId server : candidates) {
    auto reply = CallServer(server, proc, request, bulk);
    if (!reply.ok()) {
      if (reply.status() == Status::kUnavailable ||
          reply.status() == Status::kConnectionBroken) {
        // Site down: read-only replication's availability payoff — fall
        // through to the next replica site. Surrender our callback sink at
        // that server too; otherwise it would keep a pointer to this Venus
        // that Logout (which only walks live connections) would never clear.
        transport_failure = reply.status();
        connections_.erase(server);  // force a fresh handshake next time
        if (auto sit = servers_->find(server); sit != servers_->end()) {
          sit->second->UnregisterCallbackSink(node_);
        }
        // The server may have crashed: open-ended promises it held for us
        // cannot be trusted until revalidated (leases keep their own bounded
        // horizon — see NoteServerUnreachable).
        NoteServerUnreachable(server);
        continue;
      }
      return reply.status();
    }

    // Peek at the application status: a kNotCustodian reply means our cached
    // location hint is stale ("clients use cached location information as
    // hints"); refresh and retry once.
    rpc::Reader peek(*reply);
    Status app_status = Status::kOk;
    RETURN_IF_ERROR(peek.ReadStatus(&app_status));
    if (app_status != Status::kNotCustodian) return reply;

    RETURN_IF_ERROR(VolumeInfoFor(fid.volume, /*refresh=*/true).status());
    ASSIGN_OR_RETURN(ServerId retry_server, ServerFor(fid.volume));
    if (retry_server == server) return reply;  // hint did not change; give up
    return CallServer(retry_server, proc, request, bulk);
  }
  return transport_failure;
}

// --- Location ----------------------------------------------------------------------

Result<VolumeId> Venus::RootVolume() {
  if (root_volume_ != kInvalidVolume) return root_volume_;
  ASSIGN_OR_RETURN(Bytes reply, CallServer(home_server_, Proc::kGetRootVolume, Bytes{}));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(root_volume_, r.U32());
  return root_volume_;
}

Result<VolumeInfo> Venus::VolumeInfoFor(VolumeId volume, bool refresh) {
  if (!refresh) {
    auto it = volume_hints_.find(volume);
    if (it != volume_hints_.end()) return it->second;
  }
  rpc::Writer w;
  w.PutU32(volume);
  ASSIGN_OR_RETURN(Bytes reply, CallServer(home_server_, Proc::kGetVolumeInfo, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(VolumeInfo info, vice::ReadVolumeInfo(r));
  volume_hints_[volume] = info;
  return info;
}

Result<std::vector<ServerId>> Venus::ServerCandidates(VolumeId volume) {
  ASSIGN_OR_RETURN(VolumeInfo info, VolumeInfoFor(volume, /*refresh=*/false));
  if (info.read_only && !info.replica_sites.empty()) {
    // "Localize if possible": a replica in our own cluster first, then the
    // remaining sites as availability fallbacks.
    const net::Topology& topo = network_->topology();
    const ClusterId mine = topo.ClusterOf(node_);
    std::vector<ServerId> out;
    for (ServerId site : info.replica_sites) {
      auto it = servers_->find(site);
      if (it != servers_->end() && topo.ClusterOf(it->second->node()) == mine) {
        out.push_back(site);
      }
    }
    for (ServerId site : info.replica_sites) {
      if (std::find(out.begin(), out.end(), site) == out.end()) out.push_back(site);
    }
    return out;
  }
  return std::vector<ServerId>{info.custodian};
}

Result<ServerId> Venus::ServerFor(VolumeId volume) {
  ASSIGN_OR_RETURN(std::vector<ServerId> candidates, ServerCandidates(volume));
  return candidates.front();
}

Result<VolumeId> Venus::ChooseVolume(VolumeId volume, bool for_update) {
  if (for_update || !config_.prefer_readonly_replicas) return volume;
  ASSIGN_OR_RETURN(VolumeInfo info, VolumeInfoFor(volume, /*refresh=*/false));
  if (!info.read_only && info.ro_clone != kInvalidVolume) return info.ro_clone;
  return volume;
}

// --- Cache core ------------------------------------------------------------------------

Result<CacheEntry*> Venus::EnsureData(const Fid& fid, bool* hit) {
  clock_->Advance(cost_.cache_lookup);
  *hit = false;
  CacheEntry* e = cache_.Find(fid);

  if (e != nullptr && e->has_data && e->dirty) {
    // A deferred write is pending: the local copy IS the newest version.
    // Never validate or fetch over it — that would silently discard the
    // user's unflushed changes (last-close-wins resolves any conflict when
    // the store finally happens).
    *hit = true;
    cache_.Touch(fid, clock_->now());
    return e;
  }

  if (e != nullptr && e->has_data) {
    // The policy decides what "current" costs: nothing (live callback or
    // lease), one Validate (check-on-open / lost promise), or a GrantLease
    // with batched renewals. On usable=true the entry is already stamped.
    auto v = policy_->Check(fid, clock_->now());
    if (v.ok()) {
      e = cache_.Find(fid);  // revalidate pointer (no rehash occurred, but be safe)
      if (v->usable) {
        *hit = true;
        cache_.Touch(fid, clock_->now());
        return e;
      }
      // Stale copy: fall through to fetch.
    } else if (v.status() == Status::kStaleFid) {
      // An open handle (pinned) keeps its local copy alive, Unix-style;
      // erasing would unlink the inode out from under the descriptor.
      if (e->pin_count > 0) {
        cache_.Invalidate(fid);
      } else {
        cache_.Erase(fid);
      }
      return Status::kStaleFid;
    } else {
      return v.status();
    }
  }

  content::Ref data;
  auto status = RpcFetch(fid, &data);
  if (!status.ok()) return status.status();
  // Writing the fetched copy to the local disk cache costs local I/O time.
  clock_->Advance(cost_.LocalIoTime(data.size()));
  CacheEntry& entry = cache_.InstallData(fid, *status, std::move(data));
  entry.origin_server = last_contacted_;
  policy_->OnFetched(entry);
  cache_.Touch(fid, clock_->now());
  // The just-installed file must survive eviction even if it alone exceeds
  // the configured limit (it is about to be used).
  cache_.Pin(fid);
  DropEvicted(cache_.EnforceLimits());
  cache_.Unpin(fid);
  CacheEntry* out = cache_.Find(fid);
  return out != nullptr ? Result<CacheEntry*>(out) : Status::kInternal;
}

Result<VnodeStatus> Venus::EnsureStatus(const Fid& fid) {
  clock_->Advance(cost_.cache_lookup);
  CacheEntry* e = cache_.Find(fid);
  if (e != nullptr && policy_->Trusted(*e, clock_->now())) {
    cache_.Touch(fid, clock_->now());
    return e->status;
  }
  if (e != nullptr && e->has_data) {
    if (e->dirty) return e->status;  // pending local write: local truth
    // The policy's check refreshes status as a side effect — and it alone
    // decides whether the entry may adopt the fresh version number (stamping
    // a fresh version onto stale data would make the next validation pass
    // vacuously and serve the stale bytes as current).
    ASSIGN_OR_RETURN(auto check, policy_->Check(fid, clock_->now()));
    return check.fresh;
  }
  ASSIGN_OR_RETURN(VnodeStatus status, RpcFetchStatus(fid));
  CacheEntry& entry = cache_.PutStatus(fid, status);
  entry.origin_server = last_contacted_;
  policy_->OnFetched(entry);
  cache_.Touch(fid, clock_->now());
  return status;
}

Result<std::shared_ptr<const Bytes>> Venus::DirBytesOf(const Fid& dir) {
  bool hit = false;
  ASSIGN_OR_RETURN(CacheEntry * e, EnsureData(dir, &hit));
  if (e->status.type != vice::VnodeType::kDirectory) return Status::kNotDirectory;
  ASSIGN_OR_RETURN(content::Ref data, cache_.ReadRef(dir));
  clock_->Advance(cost_.LocalIoTime(data.size()));
  return data.Buffer();
}

void Venus::DropEvicted(const std::vector<Fid>& evicted) {
  if (!logged_in()) return;
  // The policy surrenders whatever server-side promise the scheme keeps per
  // file (callback promise, lease) — a no-op for check-on-open.
  for (const Fid& fid : evicted) policy_->OnEvict(fid);
}

void Venus::InvalidateDir(const Fid& dir) { cache_.Invalidate(dir); }

// --- RPC wrappers ------------------------------------------------------------------------

Result<VnodeStatus> Venus::RpcFetch(const Fid& fid, content::Ref* data) {
  rpc::Writer w;
  w.PutFid(fid);
  last_lease_expiry_ = 0;
  std::optional<rpc::Bulk> bulk;
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kFetch, w.Take(), &bulk));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(VnodeStatus status, vice::ReadVnodeStatus(r));
  ASSIGN_OR_RETURN(*data, r.RefField(bulk));
  if (config_.validation == VenusConfig::Validation::kLeases) {
    ASSIGN_OR_RETURN(uint64_t expiry, r.U64());
    last_lease_expiry_ = static_cast<SimTime>(expiry);
  }
  stats_.fetches += 1;
  stats_.bytes_fetched += data->size();
  return status;
}

Result<VnodeStatus> Venus::RpcFetchStatus(const Fid& fid) {
  rpc::Writer w;
  w.PutFid(fid);
  last_lease_expiry_ = 0;
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kFetchStatus, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(VnodeStatus status, vice::ReadVnodeStatus(r));
  if (config_.validation == VenusConfig::Validation::kLeases) {
    ASSIGN_OR_RETURN(uint64_t expiry, r.U64());
    last_lease_expiry_ = static_cast<SimTime>(expiry);
  }
  return status;
}

Result<VnodeStatus> Venus::RpcStore(const Fid& fid, const Bytes& data) {
  rpc::Writer w;
  w.PutFid(fid);
  w.PutBytes(data);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kStore, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  stats_.stores += 1;
  stats_.bytes_stored += data.size();
  return vice::ReadVnodeStatus(r);
}

// --- Resolution ---------------------------------------------------------------------------

Result<Fid> Venus::ResolveFinal(const std::string& path, bool for_update,
                                bool follow_final) {
  if (config_.client_path_traversal) return WalkClient(path, for_update, follow_final);
  return WalkServer(path);
}

Result<Venus::ParentRef> Venus::ResolveParentOf(const std::string& path, bool for_update) {
  const std::string_view leaf = Basename(path);
  if (!IsValidName(leaf)) return Status::kInvalidArgument;
  auto parent = ResolveFinal(std::string(Dirname(path)), for_update,
                             /*follow_final=*/true);
  if (!parent.ok()) {
    if (parent.status() == Status::kSymlinkEscape) {
      // Keep the invariant that escape_path_ rewrites the whole argument:
      // the parent walk dropped the leaf, so put it back.
      if (escape_path_.empty() || escape_path_.back() != '/') escape_path_ += '/';
      escape_path_.append(leaf);
    }
    return parent.status();
  }
  return ParentRef{*parent, std::string(leaf)};
}

// An update's path traversal only *reads* the directories along the way, so
// the walk below resolves every hop through the nearest read-only clone just
// like a read's walk would — "localize if possible" applies to the whole
// prefix. Only the finally resolved object must live in the read-write
// volume; clones preserve vnode numbers and uniquifiers (Volume::Clone), so
// the mapping is a volume-id rebrand of the resolved fid.
Result<Fid> Venus::MapForUpdate(Fid fid, bool for_update) {
  if (!for_update || !fid.valid()) return fid;
  ASSIGN_OR_RETURN(vice::VolumeInfo info, VolumeInfoFor(fid.volume, /*refresh=*/false));
  if (info.read_only && info.read_write_volume != kInvalidVolume) {
    fid.volume = info.read_write_volume;
  }
  return fid;
}

Result<Fid> Venus::WalkClient(const std::string& path, bool for_update, bool follow_final) {
  if (path.empty() || path.front() != '/') return Status::kInvalidArgument;

  ASSIGN_OR_RETURN(VolumeId root_vid, RootVolume());
  ASSIGN_OR_RETURN(VolumeId vid, ChooseVolume(root_vid, /*for_update=*/false));
  Fid cur = vice::VolumeRootFid(vid);

  std::vector<std::string> components = SplitPath(path);
  size_t i = 0;
  int symlink_depth = 0;
  // The directories traversed to reach `cur`, so ".." works across mount
  // points: at a mounted volume's root the parent is the directory holding
  // the mount point, which only the traversal itself knows.
  std::vector<Fid> crumbs;

  while (i < components.size()) {
    const std::string comp = components[i];
    if (comp == ".") {
      ++i;
      continue;
    }
    if (comp == "..") {
      if (!crumbs.empty()) {
        cur = crumbs.back();
        crumbs.pop_back();
      }
      // ".." at the very top of the shared space stays there, Unix-style.
      ++i;
      continue;
    }

    ASSIGN_OR_RETURN(std::shared_ptr<const Bytes> dir_bytes, DirBytesOf(cur));
    auto found = vice::LookupDirectory(*dir_bytes, comp);
    if (!found.ok()) {
      return found.status() == Status::kNotFound ? Status::kNotFound : Status::kInternal;
    }
    const DirItem item = *found;
    const bool is_final = (i + 1 == components.size());
    ++i;

    switch (item.kind) {
      case DirItem::Kind::kMountPoint: {
        ASSIGN_OR_RETURN(VolumeId next,
                         ChooseVolume(item.mount_volume, /*for_update=*/false));
        crumbs.push_back(cur);
        cur = vice::VolumeRootFid(next);
        break;
      }
      case DirItem::Kind::kSymlink: {
        if (is_final && !follow_final) return MapForUpdate(item.fid, for_update);
        if (++symlink_depth > kMaxSymlinkDepth) return Status::kSymlinkLoop;
        bool hit = false;
        ASSIGN_OR_RETURN(CacheEntry * link_entry, EnsureData(item.fid, &hit));
        (void)link_entry;
        ASSIGN_OR_RETURN(Bytes target_bytes, cache_.ReadData(item.fid));
        const std::string target = ToString(target_bytes);
        if (!target.empty() && target.front() == '/' && escape_predicate_ &&
            escape_predicate_(target)) {
          // The link leaves the shared name space. Splice the unconsumed
          // components onto the target and hand the rewritten workstation
          // path to the VFS switch (see TakeEscapePath).
          std::string rewritten = target;
          while (rewritten.size() > 1 && rewritten.back() == '/') rewritten.pop_back();
          for (size_t j = i; j < components.size(); ++j) {
            if (rewritten.back() != '/') rewritten += '/';
            rewritten += components[j];
          }
          escape_path_ = std::move(rewritten);
          return Status::kSymlinkEscape;
        }
        std::vector<std::string> spliced = SplitPath(target);
        spliced.insert(spliced.end(), components.begin() + static_cast<ptrdiff_t>(i),
                       components.end());
        components = std::move(spliced);
        i = 0;
        if (!target.empty() && target.front() == '/') {
          ASSIGN_OR_RETURN(VolumeId restart, ChooseVolume(root_vid, /*for_update=*/false));
          cur = vice::VolumeRootFid(restart);
          crumbs.clear();
        }
        // Relative target: continue from the current directory (cur is
        // still the directory containing the link).
        break;
      }
      default:
        if (!is_final) crumbs.push_back(cur);
        cur = item.fid;
        break;
    }
  }
  return MapForUpdate(cur, for_update);
}

void Venus::EraseNameMapping(std::string_view path) {
  auto it = name_cache_.find(path);
  if (it != name_cache_.end()) name_cache_.erase(it);
}

Result<Fid> Venus::WalkServer(const std::string& path) {
  if (path.empty() || path.front() != '/') return Status::kInvalidArgument;

  auto cached = name_cache_.find(path);
  if (cached != name_cache_.end()) return cached->second;

  VolumeId vid = kInvalidVolume;  // the server substitutes the root volume
  std::string remaining = path;
  // Traversal may hop custodians as it crosses mount points.
  for (int hop = 0; hop < 8; ++hop) {
    rpc::Writer w;
    w.PutU32(vid);
    w.PutString(remaining);

    Bytes reply;
    if (vid == kInvalidVolume) {
      ASSIGN_OR_RETURN(reply, CallServer(home_server_, Proc::kResolvePath, w.Take()));
    } else {
      ASSIGN_OR_RETURN(ServerId server, ServerFor(vid));
      ASSIGN_OR_RETURN(reply, CallServer(server, Proc::kResolvePath, w.Take()));
    }

    rpc::Reader r(reply);
    Status st = Status::kOk;
    RETURN_IF_ERROR(r.ReadStatus(&st));
    if (st == Status::kNotCustodian) {
      ASSIGN_OR_RETURN(uint32_t custodian, r.U32());
      (void)custodian;
      ASSIGN_OR_RETURN(vid, r.U32());
      ASSIGN_OR_RETURN(remaining, r.String());
      RETURN_IF_ERROR(VolumeInfoFor(vid, /*refresh=*/true).status());
      continue;
    }
    RETURN_IF_ERROR(st);
    ASSIGN_OR_RETURN(Fid fid, r.FidField());
    ASSIGN_OR_RETURN(VnodeStatus status, vice::ReadVnodeStatus(r));
    cache_.PutStatus(fid, status).origin_server = last_contacted_;
    cache_.Touch(fid, clock_->now());
    name_cache_.insert_or_assign(content::StringInterner::Global().Intern(path), fid);
    return fid;
  }
  return Status::kProtocolError;
}

// --- Whole-file open/close ---------------------------------------------------------------

namespace {

// Accumulates the virtual time an Open() spends, across all return paths.
class OpenTimer {
 public:
  OpenTimer(const sim::Clock* clock, SimTime* sink) : clock_(clock), sink_(sink),
                                                      start_(clock->now()) {}
  ~OpenTimer() { *sink_ += clock_->now() - start_; }

 private:
  const sim::Clock* clock_;
  SimTime* sink_;
  SimTime start_;
};

}  // namespace

Result<Venus::OpenResult> Venus::Open(const std::string& path, bool for_write, bool create) {
  if (!logged_in()) return Status::kAuthFailed;
  stats_.opens += 1;
  OpenTimer timer(clock_, &stats_.open_time_total);

  // Create the file at its custodian (reached when resolution says the name
  // does not exist, either up front or after a stale mapping was dropped).
  auto create_at_custodian = [&]() -> Result<OpenResult> {
    ASSIGN_OR_RETURN(ParentRef ref, ResolveParentOf(path, /*for_update=*/true));
    rpc::Writer w;
    w.PutFid(ref.parent);
    w.PutString(ref.leaf);
    w.PutU32(0644);
    ASSIGN_OR_RETURN(Bytes reply, CallForFid(ref.parent, Proc::kCreateFile, w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    ASSIGN_OR_RETURN(Fid fid, r.FidField());
    ASSIGN_OR_RETURN(VnodeStatus status, vice::ReadVnodeStatus(r));

    InvalidateDir(ref.parent);
    name_cache_.insert_or_assign(content::StringInterner::Global().Intern(path), fid);
    CacheEntry& e = cache_.InstallData(fid, status, content::Ref());
    e.origin_server = last_contacted_;
    cache_.Touch(fid, clock_->now());
    cache_.Pin(fid);
    return OpenResult{fid, status, e.inode};
  };

  auto resolved = ResolveFinal(path, for_write, /*follow_final=*/true);
  if (!resolved.ok() && resolved.status() == Status::kStaleFid) {
    // A cached name mapping went stale (file replaced); retry once fresh.
    EraseNameMapping(path);
    resolved = ResolveFinal(path, for_write, /*follow_final=*/true);
  }

  if (!resolved.ok()) {
    if (resolved.status() != Status::kNotFound || !create) return resolved.status();
    return create_at_custodian();
  }

  const Fid fid = *resolved;
  bool hit = false;
  auto entry = EnsureData(fid, &hit);
  if (!entry.ok() && entry.status() == Status::kStaleFid) {
    // kStaleFid from the custodian is authoritative: the fid is dead, so the
    // cached parent listing that produced it is stale no matter what lease
    // or callback promise still covers it (a leased directory can outlive a
    // server restart this way). Drop the mapping and untrust the parent
    // directory before re-resolving, so the walk refetches the listing.
    EraseNameMapping(path);
    if (auto parent = ResolveParentOf(path, /*for_update=*/false); parent.ok()) {
      InvalidateDir(parent->parent);
    }
    auto fresh = ResolveFinal(path, for_write, /*follow_final=*/true);
    if (!fresh.ok()) {
      // The refreshed listing no longer carries the name at all.
      if (fresh.status() == Status::kNotFound && create) return create_at_custodian();
      return fresh.status();
    }
    entry = EnsureData(*fresh, &hit);
    if (!entry.ok()) return entry.status();
    if (hit) stats_.cache_hits += 1;
    cache_.Pin(*fresh);
    return OpenResult{*fresh, (*entry)->status, (*entry)->inode};
  }
  if (!entry.ok()) return entry.status();
  if ((*entry)->status.type == vice::VnodeType::kDirectory) return Status::kIsDirectory;
  if (hit) stats_.cache_hits += 1;
  cache_.Pin(fid);
  return OpenResult{fid, (*entry)->status, (*entry)->inode};
}

Status Venus::Close(const Fid& fid, bool dirty) {
  CacheEntry* e = cache_.Find(fid);
  if (e == nullptr) return Status::kBadDescriptor;
  cache_.Unpin(fid);
  if (!dirty) return Status::kOk;

  if (config_.write_back == VenusConfig::WriteBack::kDeferred) {
    // Queue the store; repeated closes of the same file coalesce.
    if (!e->dirty) {
      e->dirty = true;
      dirty_queue_.push_back(fid);
    }
    auto data = cache_.ReadData(fid);
    if (data.ok()) cache_.NoteLocalSize(fid, data->size());
    if (dirty_queue_.size() >= config_.max_dirty_files) return FlushDirty();
    return Status::kOk;
  }
  return StoreBack(fid);
}

Status Venus::StoreBack(const Fid& fid) {
  // Whole-file store back to the custodian. The intercept layer wrote the
  // cached copy in place, so first resynchronize space accounting.
  ASSIGN_OR_RETURN(Bytes data, cache_.ReadData(fid));
  cache_.NoteLocalSize(fid, data.size());
  clock_->Advance(cost_.LocalIoTime(data.size()));
  auto stored = RpcStore(fid, data);
  if (!stored.ok()) {
    if (stored.status() == Status::kStaleFid) {
      // The fid died under a trusted entry — removed or replaced while a
      // lease outlived the server's knowledge of it (crash, or a break the
      // server waited out). The reply is authoritative: drop the mapping so
      // a retry of the whole operation re-resolves the name.
      if (CacheEntry* dead = cache_.Find(fid); dead != nullptr) {
        if (dead->pin_count > 0) {
          cache_.Invalidate(fid);
        } else {
          cache_.Erase(fid);
        }
      }
    }
    return stored.status();
  }
  const VnodeStatus fresh = *stored;
  CacheEntry* e = cache_.Find(fid);
  if (e != nullptr) {
    e->status = fresh;
    e->valid = true;
    e->origin_server = last_contacted_;
    e->dirty = false;
  }
  DropEvicted(cache_.EnforceLimits());
  return Status::kOk;
}

Status Venus::FlushDirty() {
  Status worst = Status::kOk;
  std::vector<Fid> queue;
  queue.swap(dirty_queue_);
  for (const Fid& fid : queue) {
    CacheEntry* e = cache_.Find(fid);
    if (e == nullptr || !e->dirty) continue;
    if (Status s = StoreBack(fid); s != Status::kOk) {
      worst = s;
      // Keep it queued; a later flush may succeed.
      if (CacheEntry* still = cache_.Find(fid); still != nullptr && still->dirty) {
        dirty_queue_.push_back(fid);
      }
    }
  }
  return worst;
}

void Venus::SimulateCrash() {
  // The machine dies: no flush, no polite disconnect. Pending deferred
  // writes evaporate with the (conceptually volatile) dirty queue; the
  // server eventually notices via its own timeouts — modelled here by the
  // explicit sink unregistration a restart would perform.
  dirty_queue_.clear();
  for (const Fid& fid : cache_.CachedFids()) {
    CacheEntry* e = cache_.Find(fid);
    if (e != nullptr && e->dirty) cache_.Erase(fid);
  }
  Logout();
}

// --- Metadata and name space -----------------------------------------------------------

Result<VnodeStatus> Venus::Stat(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  stats_.stat_calls += 1;

  if (!config_.client_path_traversal) {
    // Prototype: the pathname goes to the server, which replies with status
    // (this is the GetFileStat-style traffic of the Section 5.2 histogram).
    EraseNameMapping(path);
    ASSIGN_OR_RETURN(Fid fid, WalkServer(path));
    const CacheEntry* e = cache_.Find(fid);
    ITC_CHECK(e != nullptr);
    return e->status;
  }

  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/false, /*follow_final=*/true));
  return EnsureStatus(fid);
}

Result<std::vector<std::pair<std::string, DirItem>>> Venus::ReadDir(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/false, /*follow_final=*/true));
  ASSIGN_OR_RETURN(std::shared_ptr<const Bytes> dir_bytes, DirBytesOf(fid));
  auto entries = vice::DeserializeDirectory(*dir_bytes);
  if (!entries.ok()) return Status::kInternal;
  std::vector<std::pair<std::string, DirItem>> out(entries->begin(), entries->end());
  return out;
}

Status Venus::MkDir(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParentOf(path, /*for_update=*/true));
  rpc::Writer w;
  w.PutFid(ref.parent);
  w.PutString(ref.leaf);
  w.PutBytes(Bytes{});  // inherit the parent's access list
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(ref.parent, Proc::kMakeDir, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  InvalidateDir(ref.parent);
  return Status::kOk;
}

Status Venus::Remove(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParentOf(path, /*for_update=*/true));
  rpc::Writer w;
  w.PutFid(ref.parent);
  w.PutString(ref.leaf);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(ref.parent, Proc::kRemoveFile, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  auto it = name_cache_.find(path);
  if (it != name_cache_.end()) {
    // An open handle (pinned entry) keeps using its local copy, Unix-style;
    // only unreferenced cache state is discarded.
    CacheEntry* e = cache_.Find(it->second);
    if (e != nullptr && e->pin_count > 0) {
      cache_.Invalidate(it->second);
    } else {
      cache_.Erase(it->second);
    }
    name_cache_.erase(it);
  }
  InvalidateDir(ref.parent);
  return Status::kOk;
}

Status Venus::RmDir(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParentOf(path, /*for_update=*/true));
  rpc::Writer w;
  w.PutFid(ref.parent);
  w.PutString(ref.leaf);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(ref.parent, Proc::kRemoveDir, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  EraseNameMapping(path);
  InvalidateDir(ref.parent);
  return Status::kOk;
}

Status Venus::Rename(const std::string& from, const std::string& to) {
  if (!logged_in()) return Status::kAuthFailed;

  if (!config_.client_path_traversal) {
    // Prototype shortcoming (Section 5.1): "the inability to rename
    // directories in Vice". Files still rename.
    auto from_fid = ResolveFinal(from, /*for_update=*/true, /*follow_final=*/true);
    if (from_fid.ok()) {
      const CacheEntry* e = cache_.Find(*from_fid);
      if (e != nullptr && e->status.type == vice::VnodeType::kDirectory) {
        return Status::kNotSupported;
      }
    }
  }

  ASSIGN_OR_RETURN(ParentRef src, ResolveParentOf(from, /*for_update=*/true));
  ASSIGN_OR_RETURN(ParentRef dst, ResolveParentOf(to, /*for_update=*/true));
  rpc::Writer w;
  w.PutFid(src.parent);
  w.PutString(src.leaf);
  w.PutFid(dst.parent);
  w.PutString(dst.leaf);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(src.parent, Proc::kRename, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  // Pathname mappings under the old name are now wrong; drop the whole
  // prefix (files keep their fids, so cached data stays useful).
  for (auto it = name_cache_.begin(); it != name_cache_.end();) {
    if (PathHasPrefix(*it->first, from)) {
      it = name_cache_.erase(it);
    } else {
      ++it;
    }
  }
  InvalidateDir(src.parent);
  if (!(src.parent == dst.parent)) InvalidateDir(dst.parent);
  return Status::kOk;
}

Status Venus::Symlink(const std::string& target, const std::string& link_path) {
  if (!logged_in()) return Status::kAuthFailed;
  if (!config_.client_path_traversal) {
    // Prototype shortcoming (Section 5.1): "Vice does not support symbolic
    // links" (links from the local space into Vice are Virtue's business).
    return Status::kNotSupported;
  }
  ASSIGN_OR_RETURN(ParentRef ref, ResolveParentOf(link_path, /*for_update=*/true));
  rpc::Writer w;
  w.PutFid(ref.parent);
  w.PutString(ref.leaf);
  w.PutString(target);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(ref.parent, Proc::kMakeSymlink, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  InvalidateDir(ref.parent);
  return Status::kOk;
}

Result<std::string> Venus::ReadLink(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  if (!config_.client_path_traversal) return Status::kNotSupported;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/false, /*follow_final=*/false));
  bool hit = false;
  ASSIGN_OR_RETURN(CacheEntry * e, EnsureData(fid, &hit));
  if (e->status.type != vice::VnodeType::kSymlink) return Status::kNotSymlink;
  ASSIGN_OR_RETURN(Bytes data, cache_.ReadData(fid));
  return ToString(data);
}

Status Venus::SetMode(const std::string& path, uint16_t mode) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/true, /*follow_final=*/true));
  rpc::Writer w;
  w.PutFid(fid);
  w.PutBool(true);
  w.PutU32(mode);
  w.PutBool(false);
  w.PutU32(0);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kSetStatus, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(VnodeStatus fresh, vice::ReadVnodeStatus(r));
  CacheEntry* e = cache_.Find(fid);
  if (e != nullptr) e->status = fresh;
  return Status::kOk;
}

Result<protection::AccessList> Venus::GetAcl(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/false, /*follow_final=*/true));
  rpc::Writer w;
  w.PutFid(fid);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kGetAcl, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  ASSIGN_OR_RETURN(Bytes acl_bytes, r.BytesField());
  return protection::AccessList::Deserialize(acl_bytes);
}

Status Venus::SetAcl(const std::string& path, const protection::AccessList& acl) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/true, /*follow_final=*/true));
  rpc::Writer w;
  w.PutFid(fid);
  w.PutBytes(acl.Serialize());
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kSetAcl, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status Venus::SetLock(const std::string& path, vice::LockMode mode) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/false, /*follow_final=*/true));
  rpc::Writer w;
  w.PutFid(fid);
  w.PutU8(static_cast<uint8_t>(mode));
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kSetLock, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Status Venus::ReleaseLock(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/false, /*follow_final=*/true));
  rpc::Writer w;
  w.PutFid(fid);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kReleaseLock, w.Take()));
  rpc::Reader r(reply);
  return rpc::ExpectOk(r);
}

Result<Venus::VolumeStatus> Venus::GetVolumeStatus(const std::string& path) {
  if (!logged_in()) return Status::kAuthFailed;
  ASSIGN_OR_RETURN(Fid fid, ResolveFinal(path, /*for_update=*/false, /*follow_final=*/true));
  rpc::Writer w;
  w.PutU32(fid.volume);
  ASSIGN_OR_RETURN(Bytes reply, CallForFid(fid, Proc::kGetVolumeStatus, w.Take()));
  rpc::Reader r(reply);
  RETURN_IF_ERROR(rpc::ExpectOk(r));
  VolumeStatus out;
  out.volume = fid.volume;
  ASSIGN_OR_RETURN(out.quota_bytes, r.U64());
  ASSIGN_OR_RETURN(out.usage_bytes, r.U64());
  ASSIGN_OR_RETURN(out.read_only, r.Bool());
  ASSIGN_OR_RETURN(out.online, r.Bool());
  return out;
}

// --- Cache management -------------------------------------------------------------------

void Venus::FlushCache() {
  // Deferred writes are flushed, not discarded; only a crash loses them.
  if (!dirty_queue_.empty()) (void)FlushDirty();
  dirty_queue_.clear();
  for (const Fid& fid : cache_.CachedFids()) cache_.Erase(fid);
  name_cache_.clear();
  // Location knowledge is cached as hints; a flush drops those too, so the
  // next resolution sees e.g. a newly released read-only clone.
  volume_hints_.clear();
  root_volume_ = kInvalidVolume;
  // Surrender all callback promises and leases directly (administrative
  // path).
  for (auto& [sid, conn] : connections_) {
    auto it = servers_->find(sid);
    if (it == servers_->end()) continue;
    it->second->callbacks().UnregisterAll(this);
    it->second->leases().ReleaseAll(this);
  }
}

void Venus::ResetStats() {
  stats_ = VenusStats{};
  call_stats_.Reset();
}

void Venus::OnCallbackBroken(const Fid& fid) {
  stats_.callback_breaks_received += 1;
  CacheEntry* e = cache_.Find(fid);
  if (e != nullptr) e->lease_expiry = 0;  // a broken lease confers no trust
  cache_.Invalidate(fid);
}

}  // namespace itc::venus
