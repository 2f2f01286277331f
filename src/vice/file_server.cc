#include "src/vice/file_server.h"

#include "src/common/logging.h"
#include "src/common/path.h"
#include "src/protection/access_list.h"
#include "src/rpc/fault_injector.h"
#include "src/sim/kernel.h"
#include "src/vice/recovery/intention_log.h"

namespace itc::vice {

using protection::AccessList;
using protection::Rights;

ViceServer::ViceServer(ServerId id, NodeId node, net::Network* network,
                       const sim::CostModel& cost, rpc::RpcConfig rpc_config,
                       ViceConfig config, protection::ProtectionService* protection,
                       uint64_t nonce_seed)
    : id_(id),
      node_(node),
      network_(network),
      cost_(cost),
      config_(config),
      registry_(&ViceOpSchema()),
      endpoint_(
          node, network, cost, rpc_config,
          [this](UserId user) -> std::optional<crypto::Key> {
            auto snapshot = protection_replica_.snapshot();
            return snapshot ? snapshot->UserKey(user) : std::nullopt;
          },
          nonce_seed) {
  protection->RegisterReplica(&protection_replica_);
  BindOps();
  endpoint_.set_service(&registry_);
}

void ViceServer::InstallVolume(std::unique_ptr<Volume> volume) {
  ITC_CHECK(volume != nullptr);
  const VolumeId id = volume->id();
  due_checkpoints_[id] = volume->now();
  volumes_[id] = std::move(volume);
}

std::unique_ptr<Volume> ViceServer::EjectVolume(VolumeId id) {
  auto it = volumes_.find(id);
  if (it == volumes_.end()) return nullptr;
  std::unique_ptr<Volume> out = std::move(it->second);
  volumes_.erase(it);
  store_.EraseVolume(id);
  dirty_volumes_.erase(id);
  due_checkpoints_.erase(id);
  return out;
}

Volume* ViceServer::FindVolume(VolumeId id) {
  auto it = volumes_.find(id);
  if (it == volumes_.end()) return nullptr;
  it->second->set_now(now_);
  return it->second.get();
}

const Volume* ViceServer::FindVolume(VolumeId id) const {
  auto it = volumes_.find(id);
  return it == volumes_.end() ? nullptr : it->second.get();
}

void ViceServer::RegisterCallbackSink(NodeId node, CallbackReceiver* sink) {
  callback_sinks_[node] = sink;
}

void ViceServer::UnregisterCallbackSink(NodeId node) {
  auto it = callback_sinks_.find(node);
  if (it != callback_sinks_.end()) {
    callbacks_.ReleaseAll(it->second);
    callback_sinks_.erase(it);
  }
  // The teardown below must run even for a node that never registered a
  // sink (prototype-mode clients hold connections and locks too).
  // A disconnected (or crashed) workstation surrenders its advisory locks;
  // otherwise a crash would wedge every file its users had locked.
  locks_.ReleaseAllForNode(node);
  // It also leaves no secure-channel residue: every connection it opened is
  // torn down, so a rebooted workstation starts from a clean handshake and a
  // dead one stops consuming per-connection state.
  endpoint_.CloseConnectionsFrom(node);
}

// --- Crash recovery ----------------------------------------------------------

void ViceServer::CheckpointVolume(VolumeId id) {
  auto it = volumes_.find(id);
  if (it != volumes_.end()) due_checkpoints_[id] = it->second->now();
}

void ViceServer::SettleCheckpoint(VolumeId id) {
  auto due = due_checkpoints_.find(id);
  if (due == due_checkpoints_.end()) return;
  store_.CheckpointVolume(*volumes_.at(id), due->second);
  due_checkpoints_.erase(due);
}

void ViceServer::SettleCheckpoints() {
  for (const auto& [id, clock] : due_checkpoints_) {
    store_.CheckpointVolume(*volumes_.at(id), clock);
  }
  due_checkpoints_.clear();
}

recovery::StableStore& ViceServer::stable_store() {
  SettleCheckpoints();
  return store_;
}

void ViceServer::SimulateCrash() {
  SettleCheckpoints();  // requested images are durable before the crash
  crashed_ = true;
  endpoint_.set_online(false);
  // Volatile state dies with the machine: session channels, callback
  // promises ("callback state is volatile"), advisory locks, sink
  // registrations, the memoized CPS closures — and the in-memory volumes
  // themselves, which only exist again once Restart() re-reads the store.
  endpoint_.DropAllConnections();
  callbacks_.DropAllPromises();
  locks_ = LockManager{};
  callback_sinks_.clear();
  cps_cache_.clear();
  volumes_.clear();
}

recovery::RecoveryReport ViceServer::Restart(SimTime at) {
  if (!crashed_) SimulateCrash();  // a plain reboot loses volatile state too
  SettleCheckpoints();  // volumes installed while the server was down
  recovery::RecoveryReport report;
  SimTime disk_demand = 0;

  // Phase 1: re-read every checkpoint image (sequential I/O over the store).
  auto restored = store_.RestoreVolumes();
  ITC_CHECK(restored.ok());  // images are our own dumps
  disk_demand += cost_.DiskTime(store_.image_bytes());
  for (auto& vol : *restored) {
    const VolumeId id = vol->id();
    volumes_[id] = std::move(vol);
    report.volumes_restored += 1;
  }

  // Phase 2: replay committed intentions in LSN order; discard the rest.
  // A logged-but-uncommitted record belongs to a call whose client never saw
  // a reply, so dropping it keeps store-on-close atomic (Section 3.5).
  for (const auto& rec : store_.log().records()) {
    if (rec.state != recovery::IntentState::kCommitted) {
      report.intentions_discarded += 1;
      continue;
    }
    disk_demand += cost_.recovery_replay_per_record;
    auto it = volumes_.find(rec.volume);
    if (it == volumes_.end()) {
      report.replay_failures += 1;
      continue;
    }
    if (recovery::ApplyIntention(*it->second, rec) == Status::kOk) {
      report.intentions_replayed += 1;
    } else {
      report.replay_failures += 1;
    }
  }

  // Phase 3: salvage every volume and re-checkpoint the recovered state so
  // the log can be truncated.
  for (auto& [id, vol] : volumes_) {
    disk_demand += static_cast<SimTime>(vol->vnode_count()) * cost_.salvage_per_vnode;
    const Volume::SalvageReport sr = vol->Salvage();
    report.salvage.dangling_entries_removed += sr.dangling_entries_removed;
    report.salvage.orphan_vnodes_removed += sr.orphan_vnodes_removed;
    report.salvage.parents_fixed += sr.parents_fixed;
    report.salvage.dir_lengths_corrected += sr.dir_lengths_corrected;
    report.salvage.usage_corrected_bytes += sr.usage_corrected_bytes;
  }
  store_.log().Truncate();
  for (auto& [id, vol] : volumes_) store_.CheckpointVolume(*vol);
  disk_demand += cost_.DiskTime(store_.image_bytes());
  committed_since_checkpoint_ = 0;
  dirty_volumes_.clear();

  restart_epoch_ += 1;
  report.restart_epoch = restart_epoch_;
  crashed_ = false;
  endpoint_.set_online(true);

  // Lease recovery needs no re-establishment protocol (Gray & Cheriton): the
  // server cannot remember what it promised, so it refuses new grants until
  // every lease it could have issued before the crash has expired. Holders
  // simply fall back to check-on-open until then.
  if (config_.validation == Validation::kLeases) {
    callbacks_.SuspendLeasesUntil(at + kLeaseTerm);
  }

  // Serve the recovery I/O through the server disk: recovery takes real
  // virtual time, and the first post-restart RPCs queue behind it.
  const SimTime done = sim::Charge(endpoint_.disk(), at, disk_demand);
  report.recovery_time = done - at;
  return report;
}

bool ViceServer::CrashPointHit(rpc::CrashPoint point) {
  if (!endpoint_.fault().ConsumeCrashAt(point)) return false;
  SimulateCrash();
  return true;
}

uint64_t ViceServer::LogIntention(rpc::CallContext& ctx, recovery::IntentKind kind,
                                  VolumeId volume, Bytes payload) {
  SettleCheckpoint(volume);
  ctx.ChargeDiskTime(cost_.LogAppendTime(payload.size()));
  dirty_volumes_.insert(volume);
  return store_.log().Append(kind, volume, ctx.arrival(), std::move(payload));
}

uint64_t ViceServer::LogIntention(rpc::CallContext& ctx, VolumeId volume, const Fid& fid,
                                  content::Ref contents) {
  SettleCheckpoint(volume);
  ctx.ChargeDiskTime(cost_.LogAppendTime(
      recovery::IntentionLog::LogicalStoreRecordBytes(contents.size())));
  dirty_volumes_.insert(volume);
  return store_.log().AppendStore(volume, ctx.arrival(), fid, std::move(contents));
}

void ViceServer::CommitIntention(rpc::CallContext& ctx, uint64_t lsn) {
  ctx.ChargeDiskTime(cost_.log_fsync);
  store_.log().MarkCommitted(lsn);
  committed_since_checkpoint_ += 1;
  if (config_.log_checkpoint_interval > 0 &&
      committed_since_checkpoint_ >= config_.log_checkpoint_interval) {
    // Re-dump only volumes with logged intentions since the last checkpoint;
    // every other image is already byte-identical to a fresh dump. The disk
    // charge is unchanged: the checkpoint still writes every image.
    SettleCheckpoints();
    for (auto& [id, vol] : volumes_) {
      if (dirty_volumes_.count(id) > 0) store_.CheckpointVolume(*vol);
    }
    dirty_volumes_.clear();
    store_.log().Truncate();
    committed_since_checkpoint_ = 0;
    ctx.ChargeDiskTime(cost_.DiskTime(store_.image_bytes()));
  }
}

void ViceServer::AbortIntention(uint64_t lsn) { store_.log().MarkAborted(lsn); }

uint64_t ViceServer::RetainedContentBytes(std::unordered_set<const void*>* seen) {
  SettleCheckpoints();
  uint64_t total = 0;
  for (const auto& [id, vol] : volumes_) total += vol->RetainedContentBytes(seen);
  total += store_.RetainedContentBytes(seen);
  return total;
}

std::map<CallClass, uint64_t> ViceServer::CallHistogram() const {
  return endpoint_.call_stats().Histogram();
}

uint64_t ViceServer::total_calls() const { return endpoint_.call_stats().total_calls(); }

void ViceServer::ResetStats() {
  callbacks_.ResetStats();
  endpoint_.ResetStats();
  endpoint_.cpu().Reset();
  endpoint_.disk().Reset();
}

// --- Protection --------------------------------------------------------------

Rights ViceServer::EffectiveRights(const Volume& vol, const Fid& fid, UserId user) const {
  auto snapshot = protection_replica_.snapshot();
  if (snapshot == nullptr) return protection::kNone;
  auto& cached = cps_cache_[user];
  if (cached.first != snapshot->version() || cached.second.empty()) {
    cached = {snapshot->version(), snapshot->CPS(user)};
  }
  const std::vector<protection::Principal>& cps = cached.second;
  for (const auto& p : cps) {
    if (p.kind == protection::Principal::Kind::kGroup &&
        p.id == protection::kAdministratorsGroup) {
      return protection::kAllRights;
    }
  }
  auto acl = vol.EffectiveAcl(fid);
  if (!acl.ok()) return protection::kNone;
  return (*acl)->Effective(cps);
}

Status ViceServer::CheckAccess(const Volume& vol, const Fid& fid, UserId user,
                               Rights needed) const {
  if (protection::HasRights(EffectiveRights(vol, fid, user), needed)) return Status::kOk;
  return Status::kPermissionDenied;
}

Status ViceServer::CheckFileBits(const Volume& vol, const Fid& fid, bool write) const {
  if (!config_.per_file_protection_bits) return Status::kOk;
  auto status = vol.GetStatus(fid);
  if (!status.ok()) return status.status();
  if (status->type != VnodeType::kFile) return Status::kOk;
  const uint16_t mask = write ? 0222 : 0444;
  return (status->mode & mask) != 0 ? Status::kOk : Status::kPermissionDenied;
}

// --- Promises: callbacks and leases ----------------------------------------------

CallbackReceiver* ViceServer::SinkOf(NodeId client) const {
  auto it = callback_sinks_.find(client);
  return it != callback_sinks_.end() ? it->second : nullptr;
}

void ViceServer::BreakPromises(const Fid& fid, rpc::CallContext& ctx) {
  // Reachable holders are notified at once. An unreachable lease holder
  // cannot be told, but its promise is time-bounded: the mutation's
  // completion is held back until that lease has run out, so no client ever
  // reads stale data under a live lease.
  ctx.DelayCompletionUntil(callbacks_.Break(fid, SinkOf(ctx.client_node()), ctx.arrival(),
                                            node_, network_, &endpoint_.cpu(), cost_));
}

void ViceServer::RegisterPromise(const Fid& fid, rpc::CallContext& ctx, rpc::Writer* reply,
                                 bool current) {
  CallbackReceiver* sink = SinkOf(ctx.client_node());
  switch (config_.validation) {
    case Validation::kCheckOnOpen:
      return;
    case Validation::kCallbacks:
      if (sink != nullptr) callbacks_.Register(fid, sink, ctx.arrival(), kNeverExpires);
      return;
    case Validation::kLeases: {
      // A lease the reply cannot carry is not granted: its holder would not
      // know the term.
      if (reply == nullptr) return;
      SimTime lease_expiry = 0;
      if (current && sink != nullptr) {
        lease_expiry = callbacks_.Register(fid, sink, ctx.arrival(), kLeaseTerm);
      }
      reply->PutU64(static_cast<uint64_t>(lease_expiry));
      return;
    }
  }
}

void ViceServer::ChargeAdminFile(rpc::CallContext& ctx) {
  if (config_.admin_status_files) ctx.ChargeDisk(0);
}

void ViceServer::NoteVolumeAccess(VolumeId volume, NodeId client) {
  volume_accesses_[volume][network_->topology().ClusterOf(client)] += 1;
}

// --- Op bindings ----------------------------------------------------------------

void ViceServer::BindOps() {
  // `bind` wraps each handler with the shared prologue: stamp the volume
  // clock, and — in the prototype, where "workstations present servers with
  // entire pathnames of files and the servers do the traversing of pathnames
  // prior to retrieving the files" (Section 4) — charge every flagged
  // data/status call the name-resolution CPU plus the namei directory reads
  // that miss the buffer cache.
  auto bind = [this](Proc proc, auto handler) {
    const uint32_t opcode = static_cast<uint32_t>(proc);
    const rpc::OpSpec* spec = ViceOpSchema().Find(opcode);
    ITC_CHECK(spec != nullptr);
    registry_.Bind(opcode, [this, spec, handler](rpc::CallContext& ctx,
                                                 const Bytes& request) -> Result<Bytes> {
      // Volumes stamp mtimes from this; FindVolume applies it lazily to just
      // the volume the handler actually touches.
      now_ = ctx.arrival();
      if (config_.server_side_pathnames && (spec->flags & kOpChargesPathname) != 0) {
        ctx.ChargeCpu(cost_.prototype_path_depth * cost_.server_cpu_per_path_component);
        // namei directory blocks + inode + the .admin companion read.
        for (int i = 0; i < cost_.prototype_namei_disk_ops; ++i) ctx.ChargeDisk(0);
      }
      rpc::Reader r(request);
      return handler(ctx, r);
    });
  };

  bind(Proc::kTestAuth,
       [](rpc::CallContext&, rpc::Reader&) { return StatusReply(Status::kOk); });
  bind(Proc::kGetTime, [](rpc::CallContext& ctx, rpc::Reader&) {
    rpc::Writer w;
    w.PutStatus(Status::kOk);
    w.PutI64(ctx.arrival());
    return w.Take();
  });
  bind(Proc::kGetVolumeInfo, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleGetVolumeInfo(ctx, r);
  });
  bind(Proc::kGetRootVolume,
       [this](rpc::CallContext& ctx, rpc::Reader&) { return HandleGetRootVolume(ctx); });
  bind(Proc::kProbeEpoch, [this](rpc::CallContext&, rpc::Reader&) {
    rpc::Writer w;
    w.PutStatus(Status::kOk);
    w.PutU32(restart_epoch_);
    return w.Take();
  });
  bind(Proc::kFetch, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleFetch(ctx, r, /*with_data=*/true);
  });
  bind(Proc::kFetchStatus, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleFetch(ctx, r, /*with_data=*/false);
  });
  bind(Proc::kValidate,
       [this](rpc::CallContext& ctx, rpc::Reader& r) { return HandleValidate(ctx, r); });
  bind(Proc::kStore,
       [this](rpc::CallContext& ctx, rpc::Reader& r) { return HandleStore(ctx, r); });
  bind(Proc::kSetStatus,
       [this](rpc::CallContext& ctx, rpc::Reader& r) { return HandleSetStatus(ctx, r); });
  for (Proc proc : {Proc::kCreateFile, Proc::kMakeDir, Proc::kMakeSymlink}) {
    bind(proc, [this, proc](rpc::CallContext& ctx, rpc::Reader& r) {
      return HandleCreate(ctx, r, proc);
    });
  }
  bind(Proc::kRemoveFile, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleRemove(ctx, r, /*dir=*/false);
  });
  bind(Proc::kRemoveDir, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleRemove(ctx, r, /*dir=*/true);
  });
  bind(Proc::kRename,
       [this](rpc::CallContext& ctx, rpc::Reader& r) { return HandleRename(ctx, r); });
  bind(Proc::kMakeMountPoint, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleMakeMountPoint(ctx, r);
  });
  bind(Proc::kResolvePath, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleResolvePath(ctx, r);
  });
  bind(Proc::kGetAcl,
       [this](rpc::CallContext& ctx, rpc::Reader& r) { return HandleGetAcl(ctx, r); });
  bind(Proc::kSetAcl,
       [this](rpc::CallContext& ctx, rpc::Reader& r) { return HandleSetAcl(ctx, r); });
  bind(Proc::kSetLock, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleLock(ctx, r, /*acquire=*/true);
  });
  bind(Proc::kReleaseLock, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleLock(ctx, r, /*acquire=*/false);
  });
  bind(Proc::kRemoveCallback, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleRemoveCallback(ctx, r);
  });
  bind(Proc::kRenewLeases, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleRenewLeases(ctx, r);
  });
  bind(Proc::kGetVolumeStatus, [this](rpc::CallContext& ctx, rpc::Reader& r) {
    return HandleGetVolumeStatus(ctx, r);
  });
}

// --- Handlers ----------------------------------------------------------------------

namespace {

// Reply for a volume this server does not host: status + custodian hint.
Bytes NotCustodianReply(const LocationDb* location, VolumeId volume) {
  rpc::Writer w;
  auto info = location ? location->Find(volume) : std::nullopt;
  if (!info.has_value()) {
    w.PutStatus(Status::kNotFound);
    w.PutU32(kInvalidServer);
  } else {
    w.PutStatus(Status::kNotCustodian);
    w.PutU32(info->custodian);
  }
  return w.Take();
}

}  // namespace

Bytes ViceServer::HandleGetVolumeInfo(rpc::CallContext& ctx, rpc::Reader& r) {
  (void)ctx;
  auto vid = r.U32();
  if (!vid.ok()) return StatusReply(Status::kProtocolError);
  auto info = location_ ? location_->Find(*vid) : std::nullopt;
  rpc::Writer w;
  if (!info.has_value()) {
    w.PutStatus(Status::kNotFound);
    return w.Take();
  }
  w.PutStatus(Status::kOk);
  PutVolumeInfo(w, *info);
  return w.Take();
}

Bytes ViceServer::HandleGetRootVolume(rpc::CallContext& ctx) {
  (void)ctx;
  rpc::Writer w;
  if (location_ == nullptr || location_->root_volume == kInvalidVolume) {
    w.PutStatus(Status::kNotFound);
  } else {
    w.PutStatus(Status::kOk);
    w.PutU32(location_->root_volume);
  }
  return w.Take();
}

Bytes ViceServer::HandleFetch(rpc::CallContext& ctx, rpc::Reader& r, bool with_data) {
  auto fid = r.FidField();
  if (!fid.ok()) return StatusReply(Status::kProtocolError);
  Volume* vol = FindVolume(fid->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), fid->volume);

  auto status = vol->GetStatus(*fid);
  if (!status.ok()) return StatusReply(status.status());
  NoteVolumeAccess(fid->volume, ctx.client_node());

  // Protection: reading a file needs Read on its directory; listing a
  // directory or reading status needs Lookup.
  const Rights needed =
      (with_data && status->type == VnodeType::kFile) ? protection::kRead
                                                      : protection::kLookup;
  if (Status s = CheckAccess(*vol, *fid, ctx.user(), needed); s != Status::kOk) {
    return StatusReply(s);
  }
  if (with_data) {
    if (Status s = CheckFileBits(*vol, *fid, /*write=*/false); s != Status::kOk) {
      return StatusReply(s);
    }
  }

  rpc::Writer w;
  if (with_data) {
    // The contents ride beside the reply as the volume's own ref (§3.5.3);
    // the endpoint splices them in only for a sealed connection.
    auto data = vol->FetchRef(*fid);
    if (!data.ok()) return StatusReply(data.status());
    ctx.ChargeDisk(data->size());
    ChargeAdminFile(ctx);
    ctx.ChargeCpu(cost_.ServerCopyCpu(data->size()));
    w.PutStatus(Status::kOk);
    PutVnodeStatus(w, *status);
    ctx.set_bulk(w.PutBulk(std::move(*data)));
  } else {
    w.PutStatus(Status::kOk);
    PutVnodeStatus(w, *status);
  }
  RegisterPromise(*fid, ctx, &w);
  return w.Take();
}

Bytes ViceServer::HandleValidate(rpc::CallContext& ctx, rpc::Reader& r) {
  auto fid = r.FidField();
  auto version = fid.ok() ? r.U64() : Result<uint64_t>(Status::kProtocolError);
  if (!fid.ok() || !version.ok()) return StatusReply(Status::kProtocolError);
  Volume* vol = FindVolume(fid->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), fid->volume);

  auto status = vol->GetStatus(*fid);
  if (!status.ok()) return StatusReply(status.status());
  // Validation reveals status (size, owner, mtime): same gate as FetchStatus.
  if (Status s = CheckAccess(*vol, *fid, ctx.user(), protection::kLookup);
      s != Status::kOk) {
    return StatusReply(s);
  }
  NoteVolumeAccess(fid->volume, ctx.client_node());

  const bool valid = status->version == *version;
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutBool(valid);
  PutVnodeStatus(w, *status);
  // A stale copy gets no lease; the refetch will carry the grant.
  RegisterPromise(*fid, ctx, &w, /*current=*/valid);
  return w.Take();
}

Result<Bytes> ViceServer::HandleStore(rpc::CallContext& ctx, rpc::Reader& r) {
  auto fid = r.FidField();
  auto data = fid.ok() ? r.BytesField() : Result<Bytes>(Status::kProtocolError);
  if (!fid.ok() || !data.ok()) return StatusReply(Status::kProtocolError);
  Volume* vol = FindVolume(fid->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), fid->volume);

  if (Status s = CheckAccess(*vol, *fid, ctx.user(), protection::kWrite); s != Status::kOk) {
    return StatusReply(s);
  }
  if (Status s = CheckFileBits(*vol, *fid, /*write=*/true); s != Status::kOk) {
    return StatusReply(s);
  }

  NoteVolumeAccess(fid->volume, ctx.client_node());
  const uint64_t size = data->size();
  // Canonicalize once: the log record and the vnode then share one ref (and
  // one interned tail) instead of holding two byte copies of the store.
  content::Ref contents = content::Ref::Canonicalize(std::move(*data));
  if (CrashPointHit(rpc::CrashPoint::kBeforeLogAppend)) return Status::kUnavailable;
  const uint64_t lsn = LogIntention(ctx, fid->volume, *fid, contents);
  if (CrashPointHit(rpc::CrashPoint::kAfterLogAppend)) return Status::kUnavailable;
  if (Status s = vol->StoreRef(*fid, std::move(contents)); s != Status::kOk) {
    AbortIntention(lsn);
    return StatusReply(s);
  }
  CommitIntention(ctx, lsn);
  ctx.ChargeDisk(size);
  ChargeAdminFile(ctx);
  ctx.ChargeCpu(cost_.ServerCopyCpu(size));

  // Invalidate every other cached copy. "A workstation which fetches a file
  // at the same time that another workstation is storing it will either
  // receive the old version or the new one, but never a partially modified
  // version" — whole-file store is atomic by construction here.
  BreakPromises(*fid, ctx);
  RegisterPromise(*fid, ctx, /*reply=*/nullptr);

  auto status = vol->GetStatus(*fid);
  if (!status.ok()) return StatusReply(status.status());
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  PutVnodeStatus(w, *status);
  if (CrashPointHit(rpc::CrashPoint::kBeforeReply)) return Status::kUnavailable;
  return w.Take();
}

Result<Bytes> ViceServer::HandleSetStatus(rpc::CallContext& ctx, rpc::Reader& r) {
  auto fid = r.FidField();
  if (!fid.ok()) return StatusReply(Status::kProtocolError);
  auto has_mode = r.Bool();
  auto mode = has_mode.ok() ? r.U32() : Result<uint32_t>(Status::kProtocolError);
  auto has_owner = mode.ok() ? r.Bool() : Result<bool>(Status::kProtocolError);
  auto owner = has_owner.ok() ? r.U32() : Result<uint32_t>(Status::kProtocolError);
  if (!owner.ok()) return StatusReply(Status::kProtocolError);

  Volume* vol = FindVolume(fid->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), fid->volume);

  if (Status s = CheckAccess(*vol, *fid, ctx.user(), protection::kWrite); s != Status::kOk) {
    return StatusReply(s);
  }
  if (CrashPointHit(rpc::CrashPoint::kBeforeLogAppend)) return Status::kUnavailable;
  const uint64_t lsn = LogIntention(
      ctx, recovery::IntentKind::kSetStatus, fid->volume,
      recovery::EncodeSetStatus(*fid, *has_mode, static_cast<uint16_t>(*mode), *has_owner,
                                *owner));
  if (CrashPointHit(rpc::CrashPoint::kAfterLogAppend)) return Status::kUnavailable;
  if (*has_mode) {
    if (Status s = vol->SetMode(*fid, static_cast<uint16_t>(*mode)); s != Status::kOk) {
      AbortIntention(lsn);
      return StatusReply(s);
    }
  }
  if (*has_owner) {
    if (Status s = vol->SetOwner(*fid, *owner); s != Status::kOk) {
      AbortIntention(lsn);
      return StatusReply(s);
    }
  }
  CommitIntention(ctx, lsn);
  ChargeAdminFile(ctx);
  BreakPromises(*fid, ctx);

  auto status = vol->GetStatus(*fid);
  if (!status.ok()) return StatusReply(status.status());
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  PutVnodeStatus(w, *status);
  if (CrashPointHit(rpc::CrashPoint::kBeforeReply)) return Status::kUnavailable;
  return w.Take();
}

Result<Bytes> ViceServer::HandleCreate(rpc::CallContext& ctx, rpc::Reader& r, Proc proc) {
  auto dir = r.FidField();
  auto name = dir.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  if (!dir.ok() || !name.ok()) return StatusReply(Status::kProtocolError);

  Volume* vol = FindVolume(dir->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), dir->volume);

  if (Status s = CheckAccess(*vol, *dir, ctx.user(), protection::kInsert);
      s != Status::kOk) {
    return StatusReply(s);
  }

  // Parse the per-proc arguments and build the intention payload up front —
  // MakeDir's ACL inheritance is resolved *before* logging, so replaying the
  // record needs no context beyond the payload itself.
  recovery::IntentKind kind = recovery::IntentKind::kCreateFile;
  Bytes payload;
  uint16_t mode = 0;
  AccessList acl;
  std::string target;
  if (proc == Proc::kCreateFile) {
    auto raw_mode = r.U32();
    if (!raw_mode.ok()) return StatusReply(Status::kProtocolError);
    mode = static_cast<uint16_t>(*raw_mode);
    kind = recovery::IntentKind::kCreateFile;
    payload = recovery::EncodeCreateFile(*dir, *name, ctx.user(), mode);
  } else if (proc == Proc::kMakeDir) {
    auto acl_bytes = r.BytesField();
    if (!acl_bytes.ok()) return StatusReply(Status::kProtocolError);
    if (acl_bytes->empty()) {
      // Inherit the parent directory's access list.
      auto parent_acl = vol->EffectiveAcl(*dir);
      if (!parent_acl.ok()) return StatusReply(parent_acl.status());
      acl = **parent_acl;
    } else {
      auto parsed = AccessList::Deserialize(*acl_bytes);
      if (!parsed.ok()) return StatusReply(Status::kProtocolError);
      acl = *parsed;
    }
    kind = recovery::IntentKind::kMakeDir;
    payload = recovery::EncodeMakeDir(*dir, *name, ctx.user(), acl.Serialize());
  } else {
    auto parsed_target = r.String();
    if (!parsed_target.ok()) return StatusReply(Status::kProtocolError);
    target = *parsed_target;
    kind = recovery::IntentKind::kMakeSymlink;
    payload = recovery::EncodeMakeSymlink(*dir, *name, target, ctx.user());
  }

  if (CrashPointHit(rpc::CrashPoint::kBeforeLogAppend)) return Status::kUnavailable;
  const uint64_t lsn = LogIntention(ctx, kind, dir->volume, std::move(payload));
  if (CrashPointHit(rpc::CrashPoint::kAfterLogAppend)) return Status::kUnavailable;

  Result<Fid> created = Status::kInternal;
  if (proc == Proc::kCreateFile) {
    created = vol->CreateFile(*dir, *name, ctx.user(), mode);
  } else if (proc == Proc::kMakeDir) {
    created = vol->MakeDir(*dir, *name, ctx.user(), acl);
  } else {
    created = vol->MakeSymlink(*dir, *name, target, ctx.user());
  }
  if (!created.ok()) {
    AbortIntention(lsn);
    return StatusReply(created.status());
  }
  CommitIntention(ctx, lsn);

  ctx.ChargeDisk(0);  // directory update
  ChargeAdminFile(ctx);
  BreakPromises(*dir, ctx);
  RegisterPromise(*created, ctx, /*reply=*/nullptr);

  auto status = vol->GetStatus(*created);
  if (!status.ok()) return StatusReply(status.status());
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutFid(*created);
  PutVnodeStatus(w, *status);
  if (CrashPointHit(rpc::CrashPoint::kBeforeReply)) return Status::kUnavailable;
  return w.Take();
}

Result<Bytes> ViceServer::HandleRemove(rpc::CallContext& ctx, rpc::Reader& r, bool dir) {
  auto parent = r.FidField();
  auto name = parent.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  if (!parent.ok() || !name.ok()) return StatusReply(Status::kProtocolError);

  Volume* vol = FindVolume(parent->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), parent->volume);

  if (Status s = CheckAccess(*vol, *parent, ctx.user(), protection::kDelete);
      s != Status::kOk) {
    return StatusReply(s);
  }

  // Identify the victim first so its callbacks can be broken.
  Fid victim = kNullFid;
  if (auto d = vol->LookupDir(*parent); d.ok()) {
    if (auto it = (*d)->entries.find(*name); it != (*d)->entries.end()) victim = it->second.fid;
  }

  if (CrashPointHit(rpc::CrashPoint::kBeforeLogAppend)) return Status::kUnavailable;
  const uint64_t lsn = LogIntention(
      ctx, dir ? recovery::IntentKind::kRemoveDir : recovery::IntentKind::kRemoveFile,
      parent->volume, recovery::EncodeRemove(*parent, *name));
  if (CrashPointHit(rpc::CrashPoint::kAfterLogAppend)) return Status::kUnavailable;
  const Status s = dir ? vol->RemoveDir(*parent, *name) : vol->RemoveFile(*parent, *name);
  if (s != Status::kOk) {
    AbortIntention(lsn);
    return StatusReply(s);
  }
  CommitIntention(ctx, lsn);

  ctx.ChargeDisk(0);
  ChargeAdminFile(ctx);
  BreakPromises(*parent, ctx);
  if (victim.valid()) BreakPromises(victim, ctx);
  if (CrashPointHit(rpc::CrashPoint::kBeforeReply)) return Status::kUnavailable;
  return StatusReply(Status::kOk);
}

Result<Bytes> ViceServer::HandleRename(rpc::CallContext& ctx, rpc::Reader& r) {
  auto from_dir = r.FidField();
  auto from_name = from_dir.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  auto to_dir = from_name.ok() ? r.FidField() : Result<Fid>(Status::kProtocolError);
  auto to_name = to_dir.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  if (!to_name.ok()) return StatusReply(Status::kProtocolError);

  if (from_dir->volume != to_dir->volume) return StatusReply(Status::kCrossVolume);
  Volume* vol = FindVolume(from_dir->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), from_dir->volume);

  if (Status s = CheckAccess(*vol, *from_dir, ctx.user(), protection::kDelete);
      s != Status::kOk) {
    return StatusReply(s);
  }
  if (Status s = CheckAccess(*vol, *to_dir, ctx.user(), protection::kInsert);
      s != Status::kOk) {
    return StatusReply(s);
  }

  // If the rename overwrites an existing target, that file's cached copies
  // must be invalidated just as a Remove would invalidate them.
  Fid overwritten = kNullFid;
  if (auto d = vol->LookupDir(*to_dir); d.ok()) {
    if (auto it = (*d)->entries.find(*to_name); it != (*d)->entries.end()) {
      overwritten = it->second.fid;
    }
  }

  if (CrashPointHit(rpc::CrashPoint::kBeforeLogAppend)) return Status::kUnavailable;
  const uint64_t lsn =
      LogIntention(ctx, recovery::IntentKind::kRename, from_dir->volume,
                   recovery::EncodeRename(*from_dir, *from_name, *to_dir, *to_name));
  if (CrashPointHit(rpc::CrashPoint::kAfterLogAppend)) return Status::kUnavailable;
  if (Status s = vol->Rename(*from_dir, *from_name, *to_dir, *to_name); s != Status::kOk) {
    AbortIntention(lsn);
    return StatusReply(s);
  }
  CommitIntention(ctx, lsn);
  ctx.ChargeDisk(0);
  ChargeAdminFile(ctx);
  BreakPromises(*from_dir, ctx);
  if (!(*from_dir == *to_dir)) BreakPromises(*to_dir, ctx);
  if (overwritten.valid()) BreakPromises(overwritten, ctx);
  if (CrashPointHit(rpc::CrashPoint::kBeforeReply)) return Status::kUnavailable;
  return StatusReply(Status::kOk);
}

Result<Bytes> ViceServer::HandleMakeMountPoint(rpc::CallContext& ctx, rpc::Reader& r) {
  auto dir = r.FidField();
  auto name = dir.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  auto target = name.ok() ? r.U32() : Result<uint32_t>(Status::kProtocolError);
  if (!target.ok()) return StatusReply(Status::kProtocolError);

  Volume* vol = FindVolume(dir->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), dir->volume);
  if (Status s = CheckAccess(*vol, *dir, ctx.user(), protection::kInsert);
      s != Status::kOk) {
    return StatusReply(s);
  }
  if (CrashPointHit(rpc::CrashPoint::kBeforeLogAppend)) return Status::kUnavailable;
  const uint64_t lsn = LogIntention(ctx, recovery::IntentKind::kMakeMountPoint, dir->volume,
                                    recovery::EncodeMakeMountPoint(*dir, *name, *target));
  if (CrashPointHit(rpc::CrashPoint::kAfterLogAppend)) return Status::kUnavailable;
  if (Status s = vol->MakeMountPoint(*dir, *name, *target); s != Status::kOk) {
    AbortIntention(lsn);
    return StatusReply(s);
  }
  CommitIntention(ctx, lsn);
  ctx.ChargeDisk(0);
  BreakPromises(*dir, ctx);
  if (CrashPointHit(rpc::CrashPoint::kBeforeReply)) return Status::kUnavailable;
  return StatusReply(Status::kOk);
}

Bytes ViceServer::HandleResolvePath(rpc::CallContext& ctx, rpc::Reader& r) {
  // Prototype-mode server-side pathname traversal. Request: starting volume
  // (kInvalidVolume = the Vice root volume) + path. Reply on success:
  // kOk + Fid + VnodeStatus. If traversal crosses into a volume this server
  // does not host: kNotCustodian + custodian + volume + remaining path, and
  // Venus continues there.
  auto start_volume = r.U32();
  auto path = start_volume.ok() ? r.String() : Result<std::string>(Status::kProtocolError);
  if (!path.ok()) return StatusReply(Status::kProtocolError);

  VolumeId vid = *start_volume;
  if (vid == kInvalidVolume) {
    if (location_ == nullptr) return StatusReply(Status::kUnavailable);
    vid = location_->root_volume;
  }

  std::vector<std::string> components = SplitPath(*path);
  size_t index = 0;
  int symlink_depth = 0;

  auto not_custodian = [&](VolumeId missing) {
    rpc::Writer w;
    auto info = location_ ? location_->Find(missing) : std::nullopt;
    w.PutStatus(Status::kNotCustodian);
    w.PutU32(info ? info->custodian : kInvalidServer);
    w.PutU32(missing);
    // Remaining path, to be resolved from `missing`'s root.
    std::string rest;
    for (size_t j = index; j < components.size(); ++j) {
      rest += '/';
      rest += components[j];
    }
    w.PutString(rest.empty() ? "/" : rest);
    return w.Take();
  };

  Volume* vol = FindVolume(vid);
  if (vol == nullptr) return not_custodian(vid);
  Fid cur = vol->root();
  // Directories traversed so far, so ".." crosses mount points correctly
  // (a volume root's parent fid is null; only the traversal knows the
  // directory holding the mount).
  std::vector<std::pair<Volume*, Fid>> crumbs;

  while (index < components.size()) {
    // The server does the traversal work the revised implementation pushes
    // to clients; charge it per component.
    ctx.ChargeCpu(cost_.server_cpu_per_path_component);

    const std::string& comp = components[index];
    if (comp == ".") {
      ++index;
      continue;
    }
    auto status = vol->GetStatus(cur);
    if (!status.ok()) return StatusReply(status.status());
    if (comp == "..") {
      if (!crumbs.empty()) {
        vol = crumbs.back().first;
        cur = crumbs.back().second;
        crumbs.pop_back();
      }
      ++index;
      continue;
    }
    if (status->type != VnodeType::kDirectory) return StatusReply(Status::kNotDirectory);
    if (Status s = CheckAccess(*vol, cur, ctx.user(), protection::kLookup);
        s != Status::kOk) {
      return StatusReply(s);
    }
    auto dir = vol->LookupDir(cur);
    if (!dir.ok()) return StatusReply(dir.status());
    auto it = (*dir)->entries.find(comp);
    if (it == (*dir)->entries.end()) return StatusReply(Status::kNotFound);

    const DirItem item = it->second;
    ++index;
    if (item.kind == DirItem::Kind::kMountPoint) {
      Volume* next = FindVolume(item.mount_volume);
      if (next == nullptr) {
        // Hand the remaining work to the mount target's custodian.
        return not_custodian(item.mount_volume);
      }
      crumbs.emplace_back(vol, cur);
      vol = next;
      cur = vol->root();
      continue;
    }
    if (item.kind == DirItem::Kind::kSymlink && index <= components.size()) {
      if (++symlink_depth > kMaxSymlinkDepth) return StatusReply(Status::kSymlinkLoop);
      auto link = vol->FetchData(item.fid);
      if (!link.ok()) return StatusReply(link.status());
      const std::string target = ToString(*link);
      std::vector<std::string> spliced = SplitPath(target);
      if (!target.empty() && target.front() == '/') {
        // Absolute within Vice: restart at the root volume.
        spliced.insert(spliced.end(), components.begin() + static_cast<ptrdiff_t>(index),
                       components.end());
        components = std::move(spliced);
        index = 0;
        if (location_ == nullptr) return StatusReply(Status::kUnavailable);
        vol = FindVolume(location_->root_volume);
        if (vol == nullptr) return not_custodian(location_->root_volume);
        cur = vol->root();
        continue;
      }
      // Relative: splice before the remaining components; stay at `cur`.
      std::vector<std::string> next_components = std::move(spliced);
      next_components.insert(next_components.end(),
                             components.begin() + static_cast<ptrdiff_t>(index),
                             components.end());
      components = std::move(next_components);
      index = 0;
      continue;
    }
    cur = item.fid;
  }

  auto status = vol->GetStatus(cur);
  if (!status.ok()) return StatusReply(status.status());
  if (Status s = CheckAccess(*vol, cur, ctx.user(), protection::kLookup); s != Status::kOk) {
    return StatusReply(s);
  }
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutFid(cur);
  PutVnodeStatus(w, *status);
  return w.Take();
}

Bytes ViceServer::HandleGetAcl(rpc::CallContext& ctx, rpc::Reader& r) {
  auto fid = r.FidField();
  if (!fid.ok()) return StatusReply(Status::kProtocolError);
  Volume* vol = FindVolume(fid->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), fid->volume);
  if (Status s = CheckAccess(*vol, *fid, ctx.user(), protection::kLookup);
      s != Status::kOk) {
    return StatusReply(s);
  }
  auto acl = vol->EffectiveAcl(*fid);
  if (!acl.ok()) return StatusReply(acl.status());
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutBytes((*acl)->Serialize());
  return w.Take();
}

Result<Bytes> ViceServer::HandleSetAcl(rpc::CallContext& ctx, rpc::Reader& r) {
  auto fid = r.FidField();
  auto acl_bytes = fid.ok() ? r.BytesField() : Result<Bytes>(Status::kProtocolError);
  if (!acl_bytes.ok()) return StatusReply(Status::kProtocolError);
  Volume* vol = FindVolume(fid->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), fid->volume);
  if (Status s = CheckAccess(*vol, *fid, ctx.user(), protection::kAdminister);
      s != Status::kOk) {
    return StatusReply(s);
  }
  auto acl = AccessList::Deserialize(*acl_bytes);
  if (!acl.ok()) return StatusReply(Status::kProtocolError);
  if (CrashPointHit(rpc::CrashPoint::kBeforeLogAppend)) return Status::kUnavailable;
  const uint64_t lsn = LogIntention(ctx, recovery::IntentKind::kSetAcl, fid->volume,
                                    recovery::EncodeSetAcl(*fid, acl->Serialize()));
  if (CrashPointHit(rpc::CrashPoint::kAfterLogAppend)) return Status::kUnavailable;
  if (Status s = vol->SetAcl(*fid, *acl); s != Status::kOk) {
    AbortIntention(lsn);
    return StatusReply(s);
  }
  CommitIntention(ctx, lsn);
  ctx.ChargeDisk(0);
  if (CrashPointHit(rpc::CrashPoint::kBeforeReply)) return Status::kUnavailable;
  return StatusReply(Status::kOk);
}

Bytes ViceServer::HandleLock(rpc::CallContext& ctx, rpc::Reader& r, bool acquire) {
  auto fid = r.FidField();
  if (!fid.ok()) return StatusReply(Status::kProtocolError);
  Volume* vol = FindVolume(fid->volume);
  if (vol == nullptr) return NotCustodianReply(location_.get(), fid->volume);

  const LockManager::Holder holder{ctx.user(), ctx.client_node()};
  if (acquire) {
    auto mode_raw = r.U8();
    if (!mode_raw.ok() || *mode_raw > 1) return StatusReply(Status::kProtocolError);
    if (Status s = CheckAccess(*vol, *fid, ctx.user(), protection::kLock);
        s != Status::kOk) {
      return StatusReply(s);
    }
    // The prototype funneled lock traffic through a dedicated lock-server
    // process; model that extra hand-off when running prototype-style.
    if (config_.admin_status_files) ctx.ChargeCpu(cost_.server_context_switch);
    return StatusReply(locks_.Acquire(*fid, static_cast<LockMode>(*mode_raw), holder));
  }
  return StatusReply(locks_.Release(*fid, holder));
}

Bytes ViceServer::HandleRemoveCallback(rpc::CallContext& ctx, rpc::Reader& r) {
  auto fid = r.FidField();
  if (!fid.ok()) return StatusReply(Status::kProtocolError);
  if (CallbackReceiver* sink = SinkOf(ctx.client_node())) callbacks_.Release(*fid, sink);
  return StatusReply(Status::kOk);
}

Bytes ViceServer::HandleRenewLeases(rpc::CallContext& ctx, rpc::Reader& r) {
  auto n = r.Count(rpc::kFidWireBytes);
  if (!n.ok()) return StatusReply(Status::kProtocolError);
  std::vector<Fid> fids;
  fids.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto fid = r.FidField();
    if (!fid.ok()) return StatusReply(Status::kProtocolError);
    fids.push_back(*fid);
  }
  // Renewal is a table walk, not per-file disk work; one LWP hand-off covers
  // the whole batch — that is the point of batching renewals per server.
  ctx.ChargeCpu(cost_.server_lwp_switch);

  CallbackReceiver* sink = SinkOf(ctx.client_node());
  const bool granting = config_.validation == Validation::kLeases && sink != nullptr;
  // Nothing is renewable without a lease here; the caller must revalidate.
  const std::vector<Fid> rejected =
      granting ? callbacks_.RenewLeases(sink, fids, ctx.arrival(), kLeaseTerm) : fids;
  // Every renewed lease now runs to the same horizon.
  const SimTime lease_expiry = granting ? ctx.arrival() + kLeaseTerm : 0;
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutU64(static_cast<uint64_t>(lease_expiry));
  w.PutU32(static_cast<uint32_t>(rejected.size()));
  for (const Fid& f : rejected) w.PutFid(f);
  return w.Take();
}

Bytes ViceServer::HandleGetVolumeStatus(rpc::CallContext& ctx, rpc::Reader& r) {
  (void)ctx;
  auto vid = r.U32();
  if (!vid.ok()) return StatusReply(Status::kProtocolError);
  const Volume* vol = FindVolume(*vid);
  if (vol == nullptr) return NotCustodianReply(location_.get(), *vid);
  rpc::Writer w;
  w.PutStatus(Status::kOk);
  w.PutU64(vol->quota_bytes());
  w.PutU64(vol->usage_bytes());
  w.PutBool(vol->read_only());
  w.PutBool(vol->online());
  w.PutU64(vol->vnode_count());
  return w.Take();
}

}  // namespace itc::vice
