// Multi-client scheduler: a thin shim over the event kernel.
//
// Simulated clients interact only through FCFS resources (server CPU, disks,
// LAN segments). Each process runs as a sim::Kernel activity: before every
// Step() the activity waits until global virtual time reaches the process's
// clock, and inside a Step() every resource demand (sim::Charge) and stage
// boundary (sim::AlignTo) is a suspension point. Demands therefore reach
// every resource in global arrival order — a fetch can hold the LAN, queue at
// the server CPU behind another client's store, then wait on the disk, all
// interleaved exactly.
//
// The shard count is the one scheduling choice. One shard (the default) runs
// the solo kernel, the reference the shard-equivalence suite diffs against.
// More shards run a sim::KernelGroup (src/sim/kernel_group.h): one kernel per
// shard on its own OS thread, processes placed by their domain (cluster),
// shards synchronized conservatively at the backbone lookahead. Neither the
// count nor the placement can change simulated results.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <vector>

#include "src/common/ownership.h"
#include "src/common/types.h"
#include "src/sim/kernel.h"

namespace itc::sim {

// One simulated actor (e.g. a workstation running a workload script).
class Process {
 public:
  virtual ~Process() = default;

  // Current virtual time of this actor.
  virtual SimTime now() const = 0;
  // True when the actor has no more work.
  virtual bool done() const = 0;
  // Executes the next operation, advancing now(). Under the event kernel
  // this runs inside an activity, so it may suspend at every Charge/AlignTo.
  virtual void Step() = 0;
};

class Scheduler {
 public:
  void Add(Process* p) { Add(p, /*domain=*/0); }
  // Registers `p` on simulation domain (cluster) `domain`; the domain
  // decides shard placement when more than one shard runs.
  void Add(Process* p, uint32_t domain) {
    processes_.push_back(p);
    domains_.push_back(domain);
  }

  // Selects how the kernel parks and resumes activities: fibers unless an
  // equivalence test asks for the thread reference. Affects wall-clock
  // throughput, never simulated results.
  void set_backend(KernelBackend backend) { backend_ = backend; }

  // Runs min(n, domains) shards (n >= 1), domain d on shard d % shards: one
  // (the default) runs the solo kernel, more run a KernelGroup. A
  // multi-shard run needs the lookahead, the minimum virtual-time cost of a
  // cross-domain message (sim::CostModel::BackboneLookahead() for the
  // campus network).
  void set_shard_count(uint32_t n) { shard_count_ = n; }
  void set_lookahead(SimTime lookahead) { lookahead_ = lookahead; }
  // Shards the most recent run actually used.
  uint32_t shards_used() const { return shards_used_; }
  // Per-shard traces of the most recent multi-shard run (EnableTrace first).
  ITC_KERNEL_QUIESCENT const std::vector<std::vector<TraceEntry>>& shard_traces() const {
    return shard_traces_;
  }

  // Records each kernel's event trace during the next run into a ring of
  // `capacity` entries: trace() after a one-shard run, shard_traces() after
  // a multi-shard one. Used by the determinism and equivalence tests.
  void EnableTrace(size_t capacity = Kernel::kDefaultTraceCapacity) {
    trace_enabled_ = true;
    trace_capacity_ = capacity;
  }
  ITC_KERNEL_QUIESCENT const std::vector<TraceEntry>& trace() const { return trace_; }

  // Events dispatched during the most recent run, summed over shards; the
  // throughput bench divides this by wall-clock time.
  ITC_KERNEL_QUIESCENT uint64_t last_events() const { return last_events_; }

  // Runs until every process is done. Returns the max final virtual time.
  ITC_KERNEL_ENTRY SimTime RunAll();

  // Runs until every process is done or has now() >= horizon.
  // Returns the latest virtual time reached (capped at horizon for
  // still-running processes).
  ITC_KERNEL_ENTRY SimTime RunUntil(SimTime horizon);

 private:
  void RunSolo(SimTime horizon);
  void RunSharded(SimTime horizon);

  std::vector<Process*> processes_;
  std::vector<uint32_t> domains_;  // parallel to processes_
  KernelBackend backend_ = KernelBackend::kFiber;
  uint32_t shard_count_ = 1;
  SimTime lookahead_ = 0;  // required for more than one shard
  uint32_t shards_used_ = 0;
  bool trace_enabled_ = false;
  size_t trace_capacity_ = Kernel::kDefaultTraceCapacity;
  ITC_OWNED_BY_KERNEL std::vector<TraceEntry> trace_;
  ITC_OWNED_BY_KERNEL std::vector<std::vector<TraceEntry>> shard_traces_;
  ITC_OWNED_BY_KERNEL uint64_t last_events_ = 0;
};

}  // namespace itc::sim

#endif  // SRC_SIM_SCHEDULER_H_
