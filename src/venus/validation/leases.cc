#include "src/venus/validation/validation_policy.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/rpc/wire.h"

namespace itc::venus::validation {

namespace {

// Leases (Gray & Cheriton): a callback promise with an expiry. While the
// lease is live the entry is trusted with zero communication, exactly like
// a callback — but the trust has a horizon, which changes everything at the
// edges:
//
//   * Partition: the server cannot break our lease, but it also will not
//     complete a conflicting write until the lease has run out. We may keep
//     reading until expiry (bounded staleness), then we fall back to
//     check-on-open and fail like everyone else until the partition heals.
//     Open-ended callbacks in the same situation serve stale data forever.
//   * Server crash: no re-establishment protocol. The restarted server
//     refuses grants for one term; our leases lapse on their own and every
//     open revalidates (check-on-open behaviour) until grants resume.
//
// Renewal is batched per server: when one lease enters the renew margin, a
// single RenewLeases call refreshes every aging lease from that server.
class LeasesPolicy final : public ValidationPolicy {
 public:
  explicit LeasesPolicy(ValidationHost* host) : host_(host) {}

  VenusConfig::Validation scheme() const override {
    return VenusConfig::Validation::kLeases;
  }
  bool WantsEpochProbe() const override { return false; }
  bool Trusted(const CacheEntry& e, SimTime now) const override {
    return e.valid && e.lease_expiry > now;
  }

  Result<CheckResult> Check(const Fid& fid, SimTime now) override {
    CacheEntry* e = host_->entry_cache().Find(fid);
    if (Trusted(*e, now)) {
      if (e->lease_expiry - now <= host_->venus_config().lease_renew_margin) {
        RenewAging(fid, e->origin_server, now);
        e = host_->entry_cache().Find(fid);
      }
      if (e != nullptr && Trusted(*e, now)) return CheckResult{true, e->status};
      if (e == nullptr) return Status::kInternal;
    }

    // No live lease: check-on-open fallback, via the combined
    // validate-and-grant call so a current copy comes back leased.
    rpc::Writer w;
    w.PutFid(fid);
    w.PutU64(e->status.version);
    ASSIGN_OR_RETURN(Bytes reply, host_->CallFid(fid, vice::Proc::kGrantLease, w.Take()));
    host_->venus_stats().validations += 1;
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    ASSIGN_OR_RETURN(bool valid, r.Bool());
    ASSIGN_OR_RETURN(vice::VnodeStatus fresh, vice::ReadVnodeStatus(r));
    ASSIGN_OR_RETURN(uint64_t expiry, r.U64());
    e = host_->entry_cache().Find(fid);
    if (e != nullptr) {
      if (valid) {
        e->status = fresh;
        e->valid = true;
        e->origin_server = host_->last_contacted();
        // expiry == 0 (restart embargo): stay on per-open validation until
        // the server grants again.
        e->lease_expiry = static_cast<SimTime>(expiry);
        if (expiry > 0) host_->venus_stats().lease_grants += 1;
      } else {
        e->valid = false;
        e->lease_expiry = 0;
      }
    }
    return CheckResult{valid, fresh};
  }

  void OnFetched(CacheEntry& e) override {
    e.lease_expiry = host_->last_lease_expiry();
    if (e.lease_expiry > 0) host_->venus_stats().lease_grants += 1;
  }

  void OnEvict(const Fid& fid) override {
    rpc::Writer w;
    w.PutFid(fid);
    // Best effort; an unreleased lease just expires on its own.
    (void)host_->CallFid(fid, vice::Proc::kReleaseLease, w.Take());
  }

 private:
  // Renews, in one batched call, every live lease from `origin` that
  // expires within the renew margin. Best effort: if the server is
  // unreachable the leases simply keep their current horizon (that bound is
  // the whole point), and we do not retry within the same margin window so a
  // partition costs at most one timeout per window, not one per open.
  void RenewAging(const Fid& trigger, ServerId origin, SimTime now) {
    const SimTime margin = host_->venus_config().lease_renew_margin;
    auto last = renew_attempt_.find(origin);
    if (last != renew_attempt_.end() && now - last->second < margin) return;
    renew_attempt_[origin] = now;

    FileCache& cache = host_->entry_cache();
    std::vector<Fid> aging;
    for (const Fid& fid : cache.CachedFids()) {
      const CacheEntry* e = cache.Find(fid);
      if (e == nullptr || e->origin_server != origin) continue;
      if (!e->valid || e->lease_expiry <= now) continue;
      if (e->lease_expiry - now > margin) continue;
      aging.push_back(fid);
    }
    if (aging.empty()) return;

    rpc::Writer w;
    w.PutU32(static_cast<uint32_t>(aging.size()));
    for (const Fid& f : aging) w.PutFid(f);
    auto reply = host_->CallFid(trigger, vice::Proc::kRenewLeases, w.Take());
    if (!reply.ok()) return;
    host_->venus_stats().lease_renew_calls += 1;

    rpc::Reader r(*reply);
    if (rpc::ExpectOk(r) != Status::kOk) return;
    auto new_expiry = r.U64();
    auto n_rejected =
        new_expiry.ok() ? r.Count(rpc::kFidWireBytes) : Result<uint32_t>(Status::kProtocolError);
    if (!n_rejected.ok()) return;
    std::vector<Fid> rejected;
    rejected.reserve(*n_rejected);
    for (uint32_t i = 0; i < *n_rejected; ++i) {
      auto fid = r.FidField();
      if (!fid.ok()) return;
      rejected.push_back(*fid);
    }
    for (const Fid& fid : aging) {
      CacheEntry* e = cache.Find(fid);
      if (e == nullptr) continue;
      const bool was_rejected =
          std::find(rejected.begin(), rejected.end(), fid) != rejected.end();
      if (was_rejected) {
        // Expired at the server (or under the restart embargo): the next use
        // must revalidate. Data stays — a GrantLease can resurrect it.
        e->lease_expiry = 0;
        host_->venus_stats().leases_rejected += 1;
      } else {
        e->lease_expiry = static_cast<SimTime>(*new_expiry);
        host_->venus_stats().leases_renewed += 1;
      }
    }
  }

  ValidationHost* host_;
  // Last renewal attempt per server (throttles retries under partition).
  std::map<ServerId, SimTime> renew_attempt_;
};

}  // namespace

std::unique_ptr<ValidationPolicy> MakeLeasesPolicy(ValidationHost* host) {
  return std::make_unique<LeasesPolicy>(host);
}

}  // namespace itc::venus::validation
