#include "src/sim/scheduler.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/common/logging.h"
#include "src/sim/kernel_group.h"

namespace itc::sim {

namespace {
constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
}

SimTime Scheduler::RunAll() { return RunUntil(kForever); }

SimTime Scheduler::RunUntil(SimTime horizon) {
  ITC_CHECK(shard_count_ >= 1);
  uint32_t domains = 1;
  for (uint32_t d : domains_) domains = std::max(domains, d + 1);
  shards_used_ = std::min(shard_count_, domains);
  if (shards_used_ == 1) {
    RunSolo(horizon);
  } else {
    RunSharded(horizon);
  }

  SimTime latest = 0;
  for (Process* p : processes_) {
    latest = std::max(latest, std::min(p->now(), horizon));
  }
  return latest;
}

void Scheduler::RunSharded(SimTime horizon) {
  ITC_CHECK(lookahead_ > 0);  // set_lookahead(cost.BackboneLookahead()) first
  KernelGroup group(shards_used_, backend_, lookahead_);
  if (trace_enabled_) group.EnableTrace(trace_capacity_);
  for (size_t i = 0; i < processes_.size(); ++i) {
    Process* p = processes_[i];
    // Same loop body as RunSolo, but through sim::AlignTo: after a
    // cross-shard migration the activity must realign on whichever kernel
    // is hosting it, not the one it was spawned on.
    group.Spawn(domains_[i], "p" + std::to_string(i), p->now(), [p, horizon] {
      while (!p->done() && p->now() < horizon) {
        sim::AlignTo(p->now());
        p->Step();
      }
    });
  }
  group.Run();
  last_events_ = group.events_dispatched();
  if (trace_enabled_) {
    shard_traces_.clear();
    for (uint32_t s = 0; s < group.shard_count(); ++s) {
      shard_traces_.push_back(group.shard_trace(s));
    }
  }
}

void Scheduler::RunSolo(SimTime horizon) {
  Kernel kernel(backend_);
  if (trace_enabled_) kernel.EnableTrace(trace_capacity_);
  for (size_t i = 0; i < processes_.size(); ++i) {
    Process* p = processes_[i];
    kernel.Spawn("p" + std::to_string(i), p->now(), [p, horizon, &kernel] {
      // Re-align before every Step: an operation ends with the process clock
      // ahead of global time (the completion it computed), and the next
      // operation must not start — or touch any resource — until then.
      while (!p->done() && p->now() < horizon) {
        kernel.WaitUntil(p->now());
        p->Step();
      }
    });
  }
  kernel.Run();
  last_events_ = kernel.events_dispatched();
  if (trace_enabled_) trace_ = kernel.trace();
}

}  // namespace itc::sim
