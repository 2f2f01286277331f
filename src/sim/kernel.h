// Discrete-event simulation kernel.
//
// The kernel owns global virtual time and a single event queue — a min-heap
// keyed on (time, sequence number), so simultaneous events are FIFO-stable
// and every run is deterministic. Simulated activities (one per client
// operation stream) execute their functional code synchronously but suspend
// at every point where they consume simulated resource time; the kernel
// resumes whichever activity has the earliest pending event. The result is
// that a fetch can occupy the LAN, then queue at the server CPU behind
// another client's store, then wait on the disk, with every resource
// admitting demands in global arrival order.
//
// Mechanism — two interchangeable backends, selected per kernel:
//
//   KernelBackend::kFiber (the default, and the only one that runs outside
//   the equivalence tests): each activity is a pooled stackful
//   fiber (src/sim/fiber.h). Suspension is one user-space context switch —
//   no mutex, no condvar, no OS scheduler — and the steady-state event loop
//   performs zero allocations per event: the event heap is a pre-sized
//   vector (an activity never has more than one pending event, so Spawn
//   growth bounds it for the whole run), fiber stacks are pooled and reused
//   across activities and across runs, and the optional trace is a
//   fixed-capacity ring written in place.
//
//   KernelBackend::kThread: the original model — each activity on its own
//   OS thread, exactly one per kernel ever runnable, parked on a
//   per-activity mutex/condvar pair and handed the baton by Dispatch.
//   Retained only as the reference the equivalence tests diff the fiber
//   backend against; nothing selects it but an explicit kThread argument.
//
// Backend choice can never affect simulated time or event order: both
// backends drive the same heap with the same sequence numbers and differ
// only in how an activity's host-side execution is parked and resumed.
// tests/sim/kernel_backend_test.cc pins byte-identical traces.
//
// Sharded operation (see src/sim/kernel_group.h): a KernelGroup runs one
// Kernel per shard, each on its own OS thread, synchronized conservatively
// at a fixed lookahead. A kernel then distinguishes its *home* activities
// (spawned on it, joined by it) from activities it is currently *hosting*
// (migrated in across a cross-shard message). Cross-shard arrivals carry
// sequence numbers from a reserved range above every local sequence number,
// ordered by (source shard, per-source message counter), so event order is
// a pure function of the simulation — never of how the OS interleaves shard
// threads. A solo Kernel (no group) behaves exactly as before.
//
// Functional code never touches the kernel directly; it calls sim::Charge
// (resource demand) or sim::AlignTo (stage boundary), both of which degrade
// to synchronous behaviour when no kernel is driving the caller, so
// single-actor unit tests need no setup.

#ifndef SRC_SIM_KERNEL_H_
#define SRC_SIM_KERNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/ownership.h"
#include "src/common/types.h"
#include "src/sim/fiber.h"
#include "src/sim/resource.h"

namespace itc::sim {

class KernelGroup;

// One entry of the kernel's event trace (see Kernel::EnableTrace): the
// virtual time an activity was resumed at and the deterministic sequence
// number of the event that resumed it.
struct TraceEntry {
  SimTime time = 0;
  uint64_t seq = 0;
  std::string activity;

  bool operator==(const TraceEntry& other) const = default;
};

// How activities are parked and resumed; see the header comment. Affects
// wall-clock only — simulated results are backend-independent.
enum class KernelBackend {
  kFiber,
  kThread,
};

// "No pending time": comparisons treat it as later than every real SimTime.
inline constexpr SimTime kNeverSimTime = std::numeric_limits<SimTime>::max();

class Kernel {
 public:
  // Default trace ring capacity: plenty for every regression test while
  // keeping a traced kernel's memory fixed (~64k entries) however long the
  // simulated day runs.
  static constexpr size_t kDefaultTraceCapacity = 1u << 16;

  explicit Kernel(KernelBackend backend = KernelBackend::kFiber);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Registers an activity whose body starts at virtual time max(start, now()).
  // Must be called from outside the kernel (not from an activity body).
  ITC_KERNEL_QUIESCENT void Spawn(std::string name, SimTime start,
                                  std::function<void()> body);

  // Drains the event queue: repeatedly pops the earliest event, advances
  // virtual time to it, and resumes its activity until that activity suspends
  // (WaitUntil) or finishes. Returns once every activity has run to
  // completion; rethrows the first exception an activity body escaped with.
  // Solo mode only — a kernel inside a KernelGroup is driven by RunShard.
  ITC_KERNEL_ENTRY void Run();

  // Global virtual time: the timestamp of the most recent event.
  ITC_KERNEL_ENTRY SimTime now() const { return now_; }

  // Suspends the calling activity until virtual time reaches t; a no-op when
  // t is not in the future. Only legal from inside an activity body.
  ITC_KERNEL_ENTRY void WaitUntil(SimTime t);

  // The kernel driving the calling thread, or nullptr when the caller is not
  // a kernel activity (plain test code, bench setup, main()). After a
  // cross-shard migration this is the hosting shard's kernel, not the one
  // the activity was spawned on.
  static Kernel* Current();

  // The group this kernel is a shard of, or nullptr for a solo kernel.
  KernelGroup* group() const { return group_; }
  // This kernel's shard index within its group (0 for a solo kernel).
  uint32_t shard() const { return shard_; }

  // Records a TraceEntry per resumption into a fixed-capacity ring buffer
  // (the last `capacity` resumptions are kept; trace_dropped() counts
  // overwritten entries). Two identical runs must produce identical traces —
  // the determinism and backend-equivalence tests rely on this. Call before
  // Run; the ring is pre-sized here so tracing stays off the per-event
  // allocation path.
  ITC_KERNEL_QUIESCENT void EnableTrace(size_t capacity = kDefaultTraceCapacity);
  // The retained trace, oldest first.
  ITC_KERNEL_QUIESCENT std::vector<TraceEntry> trace() const;
  ITC_KERNEL_QUIESCENT uint64_t trace_dropped() const { return trace_dropped_; }

  // Events dispatched by Run() so far. One dispatch is one activity
  // resumption — under kFiber, exactly two user-space context switches.
  ITC_KERNEL_QUIESCENT uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  friend class KernelGroup;

  struct Activity;
  struct Event {
    SimTime time = 0;
    uint64_t seq = 0;
    Activity* activity = nullptr;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Cross-shard arrivals get sequence numbers from this reserved range, so
  // at equal timestamps every local event precedes every arrival and
  // arrivals order among themselves by (source shard, per-source message
  // counter) — deterministic however the OS interleaves shard threads.
  static constexpr uint64_t kArrivalSeqBase = 1ull << 62;
  static constexpr uint64_t ArrivalSeq(uint32_t src_shard, uint64_t msg_seq) {
    return kArrivalSeqBase + (static_cast<uint64_t>(src_shard) << 40) + msg_seq;
  }

  // A timestamped cross-shard message: either an activity migrating in, or
  // a one-shot activity a Post created (then `adopt` transfers ownership to
  // the receiving kernel at drain time).
  struct Mail {
    SimTime time = 0;
    uint64_t seq = 0;
    Activity* activity = nullptr;
    bool adopt = false;
  };

  // Queues an event. Steady-state calls (WaitUntil) never allocate: every
  // activity has at most one pending event, so the capacity Spawn built up
  // bounds the heap for the whole run (checked). Kernels in a group may
  // grow — migrated-in activities add events beyond the spawn-time bound.
  void PushEvent(SimTime time, Activity* activity, bool may_grow);
  // As PushEvent, but with an explicit arrival-range sequence number.
  void PushArrival(SimTime time, uint64_t seq, Activity* activity);
  // Pops the earliest event, advances the clock, dispatches. Shared by the
  // solo and sharded event loops.
  void StepOne();
  // Resumes `a` and returns when it suspends, migrates out, or finishes.
  void Dispatch(Activity* a);
  // Sharded event loop: drain arrivals, publish the time lower bound, wait
  // for the group's safe horizon, dispatch. Runs on the shard's own thread.
  ITC_KERNEL_ENTRY void RunShard();
  // Moves arrived mail into the event heap, keeping the published lower
  // bound covering the moved timestamps at every instant.
  void DrainMail();
  // Accepts a cross-shard message (called by the *sending* shard's thread).
  void EnqueueMail(const Mail& mail);
  // Suspends the calling activity and hands it to `target` (possibly this
  // kernel — same ordering class either way), where it will resume at time
  // `t` under arrival sequence number `seq`. The handoff is performed by
  // this kernel's event loop once the activity is fully parked.
  void MigrateOut(Kernel* target, SimTime t, uint64_t seq);
  // Creates a one-shot activity owned by this kernel and mails it to
  // itself; the sending shard's thread calls this on the *target* kernel.
  void PostMail(SimTime time, uint64_t seq, std::string name, std::function<void()> body);
  // Joins finished kThread activity threads; a group calls this after every
  // shard's event loop has terminated.
  void JoinActivityThreads();
  void RecordTrace(const Event& e);
  // Fiber entry point: runs the body, records failures, marks finished.
  static void FiberMain(void* arg);
  // Entry point of an activity thread (kThread): runs the body, then returns
  // the baton for good.
  static void ThreadMain(Activity* a);
  // kThread: blocks until the running activity parks, migrates or finishes.
  void AwaitBaton();
  // kThread: called on the activity's thread to hand control back.
  void ReturnBaton();

  const KernelBackend backend_;
  // Binary min-heap (std::push_heap/pop_heap over EventAfter), pre-sized by
  // Spawn-time growth.
  ITC_OWNED_BY_KERNEL std::vector<Event> heap_;
  ITC_OWNED_BY_KERNEL std::vector<std::unique_ptr<Activity>> activities_;
  ITC_OWNED_BY_KERNEL SimTime now_ = 0;
  ITC_OWNED_BY_KERNEL uint64_t next_seq_ = 0;
  ITC_OWNED_BY_KERNEL uint64_t events_dispatched_ = 0;
  ITC_OWNED_BY_KERNEL std::exception_ptr failure_;

  // Trace ring buffer; trace_cap_ == 0 means tracing is off.
  ITC_OWNED_BY_KERNEL std::vector<TraceEntry> trace_buf_;
  ITC_OWNED_BY_KERNEL size_t trace_cap_ = 0;
  ITC_OWNED_BY_KERNEL size_t trace_head_ = 0;   // next slot to write
  ITC_OWNED_BY_KERNEL size_t trace_count_ = 0;  // live entries, <= trace_cap_
  ITC_OWNED_BY_KERNEL uint64_t trace_dropped_ = 0;

  // Group membership (null / 0 for a solo kernel). Set once by KernelGroup
  // before any shard thread starts, constant while running.
  KernelGroup* group_ = nullptr;
  uint32_t shard_ = 0;
  // Per-sender counter ordering this kernel's outgoing cross-shard messages.
  ITC_OWNED_BY_KERNEL uint64_t next_msg_seq_ = 0;

  // Cross-shard mailbox. Senders push under mail_mu_; the owning shard
  // drains at the top of its event loop. mail_min_ mirrors the earliest
  // queued timestamp (kNeverSimTime when empty) so other shards can fold it
  // into this shard's effective lower bound without taking the mutex, and
  // lb_ is the shard's published promise: it will dispatch nothing, and
  // therefore send nothing timestamped less than lb_ + lookahead, below it.
  std::mutex mail_mu_;
  std::vector<Mail> mail_;
  alignas(64) std::atomic<SimTime> mail_min_{kNeverSimTime};
  alignas(64) std::atomic<SimTime> lb_{0};

  // kThread backend: the baton handed between Dispatch and the one running
  // activity. The mutex carries the happens-before edges that make the
  // unlocked kernel-state accesses safe — an activity only touches kernel
  // state between being woken by Dispatch and returning the baton.
  std::mutex mu_;
  std::condition_variable kernel_cv_;  // signalled when the baton returns
  ITC_OWNED_BY_KERNEL bool baton_returned_ = false;  // guarded by mu_

  static thread_local Kernel* current_kernel_;
  static thread_local Activity* current_activity_;
};

// The sanctioned way for functional code to consume simulated resource time
// (the resource-serve-outside-kernel lint rule rejects direct Serve calls
// outside src/sim/). Inside a kernel activity this suspends until the
// demand's `arrival`, then admits it — so every resource sees demands in
// global arrival order, FIFO ties broken by event sequence. The returned
// completion time is a prediction, not a wait: callers thread it into the
// arrival of their next stage, and that next Charge/AlignTo is the
// suspension point which realizes it. Outside a kernel this is a plain
// Resource::Serve in call order.
ITC_KERNEL_ENTRY SimTime Charge(Resource& resource, SimTime arrival, SimTime demand);

// Suspends until virtual time reaches t (no-op outside a kernel). Marks a
// stage boundary that consumes no resource time — e.g. "the request has now
// arrived at the server; dispatch may run" — so the functional side effects
// of a stage happen at the simulated moment they represent.
ITC_KERNEL_ENTRY void AlignTo(SimTime t);

}  // namespace itc::sim

#endif  // SRC_SIM_KERNEL_H_
