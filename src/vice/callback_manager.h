// Callback-based cache invalidation (the revised validation scheme).
//
// "Experience with a prototype has convinced us that the cost of frequent
//  cache validation is high enough to warrant the additional complexity of
//  an invalidate-on-modification approach in our next implementation."
//  (Section 3.2)
//
// The server remembers, per fid, which Venus instances hold cached copies
// (a "callback promise"). When the file is modified the server notifies
// every holder except the writer; holders discard or mark the cache entry.
// The cost of each break — one server CPU dispatch and one network message —
// is charged against the simulated resources, so the validation-scheme
// ablation (bench_validation_schemes) measures real traffic.

#ifndef SRC_VICE_CALLBACK_MANAGER_H_
#define SRC_VICE_CALLBACK_MANAGER_H_

#include <set>
#include <unordered_map>

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

struct CallbackStats {
  uint64_t registered = 0;
  uint64_t broken = 0;          // individual notifications sent
  uint64_t break_events = 0;    // mutations that triggered notifications
  uint64_t lost = 0;            // notifications a link partition ate
};

class CallbackManager {
 public:
  void Register(const Fid& fid, CallbackReceiver* who);
  void Unregister(const Fid& fid, CallbackReceiver* who);
  // Drops every promise held by `who` (workstation disconnect / cache flush).
  void UnregisterAll(CallbackReceiver* who);

  // Drops every promise without notifying anyone — the server crashed and
  // its callback state is volatile (Section 3.2). Stats survive; they count
  // lifetime activity, not live promises.
  void DropAllPromises() { promises_.clear(); }

  // Breaks all promises on `fid` except the writer's own, delivering
  // notifications and charging server CPU + network per notification.
  // Returns the number of notifications sent.
  uint32_t Break(const Fid& fid, CallbackReceiver* except, SimTime at, NodeId server_node,
                 net::Network* network, sim::Resource* server_cpu,
                 const sim::CostModel& cost);

  // Breaks every promise on fids belonging to `volume` (used when a volume
  // goes offline or moves between servers). Returns notifications sent.
  uint32_t BreakVolume(VolumeId volume, SimTime at, NodeId server_node,
                       net::Network* network, sim::Resource* server_cpu,
                       const sim::CostModel& cost);

  bool HasPromise(const Fid& fid, const CallbackReceiver* who) const;
  size_t promise_count() const;
  const CallbackStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CallbackStats{}; }

 private:
  std::unordered_map<Fid, std::set<CallbackReceiver*>, FidHash> promises_;
  CallbackStats stats_;
};

}  // namespace itc::vice

#endif  // SRC_VICE_CALLBACK_MANAGER_H_
