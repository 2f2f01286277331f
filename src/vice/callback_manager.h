// Cache promises: the server's half of the callback and lease schemes.
//
// "Experience with a prototype has convinced us that the cost of frequent
//  cache validation is high enough to warrant the additional complexity of
//  an invalidate-on-modification approach in our next implementation."
//  (Section 3.2)
//
// The server remembers, per fid, which Venus instances hold cached copies
// and until when it has promised to notify them before their copy goes
// stale. A callback promise (Section 3.2) never expires; a lease (Gray &
// Cheriton [Gray89]) is the same promise with a term. When the file is
// modified the server notifies every holder except the writer; holders
// discard or mark the cache entry. The cost of each break — one server CPU
// dispatch and one network message — is charged against the simulated
// resources, so the validation-scheme ablation (bench_validation_schemes)
// measures real traffic.
//
// The expiry is what separates the schemes at their edges. A break lost to
// a partition leaves a callback holder trusting its copy forever, while an
// unreachable lease holder is waited out: the mutation may not complete
// before that lease has run out. A crash empties the table (it is volatile);
// a restarted lease server refuses new promises for one term (the grant
// embargo), after which every lease it forgot has provably lapsed.

#ifndef SRC_VICE_CALLBACK_MANAGER_H_
#define SRC_VICE_CALLBACK_MANAGER_H_

#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/fid.h"
#include "src/common/types.h"
#include "src/net/network.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"

namespace itc::vice {

// Implemented by Venus: receives invalidations. The receiver's node id
// determines network cost of the notification.
class CallbackReceiver {
 public:
  virtual ~CallbackReceiver() = default;
  virtual void OnCallbackBroken(const Fid& fid) = 0;
  virtual NodeId callback_node() const = 0;
};

// The order in which a server notifies, and charges, the holders of a
// promise: by node (one Venus per node). Receiver addresses, the order of
// the holder sets, would make each break's simulated time depend on where
// the host's heap put the receivers.
inline bool NodeOrder(const CallbackReceiver* a, const CallbackReceiver* b) {
  return a->callback_node() < b->callback_node();
}

// The term and expiry of a callback promise: a callback is a lease that
// never expires.
inline constexpr SimTime kNeverExpires = std::numeric_limits<SimTime>::max();

struct CallbackStats {
  uint64_t broken = 0;        // individual notifications sent
  uint64_t break_events = 0;  // mutations that triggered notifications
  uint64_t lost = 0;          // notifications a link partition ate
  uint64_t waited_out = 0;    // unreachable lease holders a mutation had to outwait
  uint64_t refused = 0;       // registrations refused under the grant embargo
};

class CallbackManager {
 public:
  // Promises `who` to notify it before `fid` changes, until `now + term`
  // (kNeverExpires for a callback), replacing any earlier expiry. Returns
  // the expiry, or 0 under the grant embargo: nothing is promised and the
  // holder must keep checking on open.
  SimTime Register(const Fid& fid, CallbackReceiver* who, SimTime now, SimTime term);

  // Batch lease renewal: extends every listed fid on which `who` still
  // holds a live promise to `now + term`. Returns the rest (expired, never
  // held, or under the grant embargo): renewal would resurrect a promise the
  // server may already have treated as dead while mutating, so the holder
  // must revalidate those.
  std::vector<Fid> RenewLeases(CallbackReceiver* who, const std::vector<Fid>& fids, SimTime now,
                               SimTime term);

  // Voluntary release (cache eviction), and release of everything a holder
  // had (workstation disconnect / cache flush).
  void Release(const Fid& fid, CallbackReceiver* who);
  void ReleaseAll(CallbackReceiver* who);

  // Breaks all live promises on `fid` except the writer's own, in node
  // order, charging server CPU per holder and one small message per
  // reachable one. Returns the earliest safe completion time of the
  // mutation: `at`, pushed back to the end of the grant embargo (a
  // restarted server cannot know which leases it forgot) and to the expiry
  // of every unreachable holder's lease. An unreachable callback holder
  // cannot be waited out; its notification is lost. The table then forgets
  // the file, except the writer's promise, which keeps its expiry.
  SimTime Break(const Fid& fid, CallbackReceiver* except, SimTime at, NodeId server_node,
                net::Network* network, sim::Resource* server_cpu, const sim::CostModel& cost);

  // Administrative breaks, for a change made behind the file server's back:
  // every promise on `fid` (a new mount point), or on every fid of `volume`
  // (a direct populate, a volume move). They return notifications sent and
  // wait for no one. An unreachable lease holder is not counted as waited
  // out and may read its old copy until its lease runs out; its promise is
  // dropped like every other, so it cannot renew past that, and a later
  // client mutation of the file does not wait for it either.
  uint32_t BreakFile(const Fid& fid, SimTime at, NodeId server_node, net::Network* network,
                     sim::Resource* server_cpu, const sim::CostModel& cost);
  uint32_t BreakVolume(VolumeId volume, SimTime at, NodeId server_node, net::Network* network,
                       sim::Resource* server_cpu, const sim::CostModel& cost);

  // Drops every promise without notifying anyone — the server crashed and
  // its promise table is volatile (Section 3.2). Stats survive; they count
  // lifetime activity, not live promises.
  void DropAllPromises() { promises_.clear(); }
  // Grant embargo: refuse all registrations and renewals until `until`
  // (restart time + one lease term).
  void SuspendLeasesUntil(SimTime until) { suspended_until_ = until; }
  SimTime suspended_until() const { return suspended_until_; }

  // A promise is live while it has not expired at `now`.
  bool HasPromise(const Fid& fid, const CallbackReceiver* who, SimTime now) const;
  // Live promises across the table at `now` (expired rows not yet dropped
  // do not count).
  size_t promise_count(SimTime now) const;
  const CallbackStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CallbackStats{}; }

 private:
  using Holders = std::map<CallbackReceiver*, SimTime>;  // holder -> expiry

  // Notifies `holders` of `fid` but `except`, as Break describes, charging
  // from `*t` on and counting notifications into `*sent`. Unreachable
  // holders of a live lease go into `*unheard` for Break to wait out
  // (nullptr for an administrative break, which waits for no one).
  void Notify(const Fid& fid, const Holders& holders, CallbackReceiver* except, SimTime at,
              SimTime* t, uint32_t* sent, Holders* unheard, NodeId server_node,
              net::Network* network, sim::Resource* server_cpu, const sim::CostModel& cost);

  SimTime suspended_until_ = 0;
  std::unordered_map<Fid, Holders, FidHash> promises_;
  CallbackStats stats_;
};

}  // namespace itc::vice

#endif  // SRC_VICE_CALLBACK_MANAGER_H_
