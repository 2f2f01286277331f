// Sharded multi-kernel runtime: conservative parallel discrete-event
// simulation, one Kernel per shard, each on its own OS thread.
//
// The campus topology is the partition (ROADMAP item 1): every cluster's
// servers, workstations and LAN segment live on one shard, and only
// backbone crossings couple shards. Crossing the backbone costs at least
//
//   lookahead = 2 * bridge_hop_latency + net_msg_latency
//
// of virtual time (two bridge hops plus the minimum transmission time of
// the smallest message, sim::CostModel::BackboneLookahead), so a shard may
// freely dispatch any event strictly below
//
//   min over other shards of (their published time bound) + lookahead
//
// — the classic null-message / lookahead recipe. Each shard publishes a
// monotone-per-iteration *time bound*: the earliest timestamp it could
// still dispatch (its heap top folded with its mailbox minimum). Messages
// between shards are timestamped activity handoffs:
//
//   MigrateToDomain  moves the *calling activity* to another shard. The
//                    synchronous RPC structure is preserved: the client's
//                    activity executes the server-side code on the server's
//                    shard and migrates home with the reply transfer.
//   Post             spawns a one-shot activity on another shard (one-way
//                    messages: callback and lease breaks have no ack to
//                    ride home on).
//
// Determinism: cross-shard arrivals carry sequence numbers above every
// local sequence number, ordered by (source shard, per-source message
// counter) — see Kernel::ArrivalSeq — so the event order on every shard is
// a pure function of the simulation, independent of how the OS schedules
// the shard threads, and independent of the shard *count* (clusters mapped
// to the same shard still exchange arrival-class messages). Workloads with
// no cross-cluster traffic replay bit-identical per-cluster traces against
// the solo kernel; docs/KERNEL.md states the full guarantee.
//
// Termination: a shard with an empty heap and mailbox publishes "never";
// when every shard is at "never" and a messages-sent counter is stable
// across the scan, no work exists anywhere and the group shuts down.

#ifndef SRC_SIM_KERNEL_GROUP_H_
#define SRC_SIM_KERNEL_GROUP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/ownership.h"
#include "src/common/types.h"
#include "src/sim/kernel.h"

namespace itc::sim {

class KernelGroup {
 public:
  // `lookahead` is the minimum virtual-time distance of any cross-shard
  // message (sim::CostModel::BackboneLookahead() for the campus network);
  // every MigrateToDomain/Post timestamp is checked against it. Every shard
  // parks its activities with `backend`.
  KernelGroup(uint32_t shard_count, KernelBackend backend, SimTime lookahead);
  ~KernelGroup();
  KernelGroup(const KernelGroup&) = delete;
  KernelGroup& operator=(const KernelGroup&) = delete;

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  SimTime lookahead() const { return lookahead_; }

  // Domain (cluster) -> shard placement. Stable for the life of the group.
  uint32_t ShardOfDomain(uint32_t domain) const { return domain % shard_count(); }
  Kernel& shard(uint32_t i) { return *shards_[i]; }
  const Kernel& shard(uint32_t i) const { return *shards_[i]; }

  // The group driving the calling activity, or nullptr when the caller is
  // not a kernel activity or its kernel is solo. This is how the network
  // layer detects sharded operation.
  static KernelGroup* Current();

  // Registers an activity on `domain`'s shard. Must be called before Run.
  ITC_KERNEL_QUIESCENT void Spawn(uint32_t domain, std::string name, SimTime start,
                                  std::function<void()> body);

  // Runs every shard's event loop to completion: shard 0 on the calling
  // thread, one OS thread per further shard. Rethrows the first failure any
  // activity escaped with (lowest shard index wins ties deterministically).
  ITC_KERNEL_ENTRY void Run();

  // Moves the calling activity to `domain`'s shard, resuming at virtual
  // time `t`. Requires t >= host->now() + lookahead — the caller's network
  // path must have paid the backbone crossing. Legal (and still ordered in
  // the arrival sequence range) when the target is the calling shard, so
  // event order does not depend on how many shards the domains fold into.
  ITC_KERNEL_ENTRY void MigrateToDomain(uint32_t domain, SimTime t);

  // Schedules `fn` as a one-shot activity on `domain`'s shard at virtual
  // time `t` (same lookahead contract). One-way fire-and-forget messages;
  // the calling activity continues immediately.
  ITC_KERNEL_ENTRY void Post(uint32_t domain, SimTime t, std::string name,
                             std::function<void()> fn);

  // Per-shard tracing (same ring semantics as Kernel::EnableTrace).
  ITC_KERNEL_QUIESCENT void EnableTrace(size_t capacity = Kernel::kDefaultTraceCapacity);
  ITC_KERNEL_QUIESCENT std::vector<TraceEntry> shard_trace(uint32_t i) const {
    return shards_[i]->trace();
  }

  // Events dispatched across all shards during Run.
  ITC_KERNEL_QUIESCENT uint64_t events_dispatched() const;

 private:
  friend class Kernel;

  enum class Gate {
    kDispatch,  // the heap top at t_next is inside the safe horizon
    kRetry,     // mail arrived; drain and re-evaluate
    kDone,      // global termination
  };

  // Blocks (spin, then condvar with a timeout backstop) until the shard may
  // dispatch its heap top at `t_next`, has mail to drain, or the group is
  // done. Called by Kernel::RunShard with the shard's bound published.
  Gate AwaitSafe(uint32_t shard, SimTime t_next);

  // The earliest timestamp shard `i` could still dispatch: its published
  // bound folded with its mailbox minimum.
  SimTime EffectiveBound(uint32_t i) const;
  // min over shards != `self` of EffectiveBound + lookahead (saturating).
  SimTime SafeHorizon(uint32_t self) const;
  bool AllIdle() const;

  // Called by the sending side after enqueueing cross-shard mail: orders
  // the messages-sent counter after the mailbox publication (the
  // termination scan depends on exactly this order) and wakes waiters.
  void NoteMessageSent();
  void WakeWaiters();

  void RunShardThread(uint32_t i);

  const SimTime lookahead_;
  std::vector<std::unique_ptr<Kernel>> shards_;

  // Total cross-shard messages ever sent; the termination scan re-reads it
  // around the idle check so an in-flight handoff can never be missed.
  std::atomic<uint64_t> msgs_sent_{0};
  std::atomic<bool> terminated_{false};

  // Blocking support for gated shards. Publishers only take the lock when
  // someone is actually waiting; waiters use a timed wait as a backstop so
  // a lost wakeup costs a timeout, never a hang.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  std::atomic<uint32_t> waiters_{0};
};

}  // namespace itc::sim

#endif  // SRC_SIM_KERNEL_GROUP_H_
