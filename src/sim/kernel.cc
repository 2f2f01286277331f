#include "src/sim/kernel.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/kernel_group.h"

namespace itc::sim {

// An activity is a cooperative execution context. Under kFiber it runs on a
// pooled fiber stack; under kThread it is a thread started lazily at its
// first event and parked on its own mutex/condvar pair whenever it suspends.
// `home` is the kernel that spawned it (owns the memory, joins the thread);
// `host` is the kernel currently dispatching it, which differs from `home`
// while the activity is migrated across a shard boundary.
struct Kernel::Activity {
  std::string name;
  std::function<void()> body;
  Kernel* home = nullptr;
  Kernel* host = nullptr;
  bool started = false;
  bool finished = false;
  // Pending cross-shard handoff, set by MigrateOut before suspending and
  // performed by the hosting kernel's Dispatch once the activity is parked.
  Kernel* migrate_to = nullptr;
  SimTime migrate_time = 0;
  uint64_t migrate_seq = 0;
  // kFiber backend.
  Fiber fiber;
  // kThread backend. The park pair is per-activity (not per-kernel) so a
  // different shard's kernel can wake a migrated activity.
  std::thread thread;
  std::mutex park_mu;
  std::condition_variable park_cv;
  bool resume = false;  // guarded by park_mu
};

thread_local Kernel* Kernel::current_kernel_ = nullptr;
thread_local Kernel::Activity* Kernel::current_activity_ = nullptr;

Kernel::Kernel(KernelBackend backend) : backend_(backend) {}

Kernel::~Kernel() {
  // Run() / KernelGroup::Run() joins every started thread (and releases
  // every fiber stack) before returning, and an unstarted activity holds
  // neither; nothing can still be parked here.
  for (auto& a : activities_) {
    ITC_CHECK(!a->thread.joinable());
  }
}

void Kernel::Spawn(std::string name, SimTime start, std::function<void()> body) {
  ITC_CHECK(Current() == nullptr);  // spawning from an activity is not supported
  auto a = std::make_unique<Activity>();
  a->name = std::move(name);
  a->body = std::move(body);
  a->home = this;
  a->host = this;
  PushEvent(std::max(start, now_), a.get(), /*may_grow=*/true);
  activities_.push_back(std::move(a));
}

void Kernel::PushEvent(SimTime time, Activity* activity, bool may_grow) {
  // Every activity has at most one pending event (its spawn event or its
  // current WaitUntil), so the capacity built up while spawning bounds the
  // heap for the whole run and the steady-state push below cannot
  // reallocate. The check turns any future violation of that invariant into
  // a crash instead of a silent allocation. Kernels in a group are exempt:
  // activities migrated in add events beyond the spawn-time bound.
  if (!may_grow) ITC_CHECK(heap_.size() < heap_.capacity());
  // itcfs-lint: allow(no-alloc-in-kernel-hot-path) -- capacity-checked above; steady state never grows
  heap_.push_back(Event{time, next_seq_++, activity});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

void Kernel::PushArrival(SimTime time, uint64_t seq, Activity* activity) {
  ITC_CHECK(time >= now_);  // the conservative gate kept us below this arrival
  activity->host = this;
  // itcfs-lint: allow(no-alloc-in-kernel-hot-path) -- arrival rate is bounded by cross-shard traffic, not the event rate
  heap_.push_back(Event{time, seq, activity});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

void Kernel::Run() {
  ITC_CHECK(Current() == nullptr);  // no nested Run() from an activity body
  ITC_CHECK(group_ == nullptr);     // shards are driven by KernelGroup::Run
  while (!heap_.empty()) {
    StepOne();
  }
  // An unfinished activity would be parked in WaitUntil with its event still
  // queued; an empty heap therefore implies every body ran to completion.
  JoinActivityThreads();
  if (failure_ != nullptr) {
    std::exception_ptr f = std::exchange(failure_, nullptr);
    std::rethrow_exception(f);
  }
}

void Kernel::RunShard() {
  ITC_CHECK(group_ != nullptr);
  ITC_CHECK(Current() == nullptr);
  for (;;) {
    DrainMail();
    const SimTime t_next = heap_.empty() ? kNeverSimTime : heap_.front().time;
    // Publish the promise first, then gate on the other shards: nothing
    // below t_next will be dispatched here, so nothing this shard sends can
    // be timestamped below t_next + lookahead.
    lb_.store(t_next);
    group_->WakeWaiters();  // the raised bound may open another shard's horizon
    const KernelGroup::Gate gate = group_->AwaitSafe(shard_, t_next);
    if (gate == KernelGroup::Gate::kDone) break;
    if (gate == KernelGroup::Gate::kRetry) continue;
    StepOne();
  }
}

void Kernel::StepOne() {
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  const Event e = heap_.back();
  heap_.pop_back();
  ITC_CHECK(e.time >= now_);  // the heap never yields a past event
  now_ = e.time;
  ++events_dispatched_;
  if (trace_cap_ != 0) RecordTrace(e);
  Dispatch(e.activity);
}

void Kernel::JoinActivityThreads() {
  for (auto& a : activities_) {
    ITC_CHECK(a->finished || !a->started);
    if (a->thread.joinable()) a->thread.join();
  }
}

void Kernel::Dispatch(Activity* a) {
  if (backend_ == KernelBackend::kFiber) {
    // Everything runs on this one OS thread; the thread-locals describe
    // whichever activity holds the processor between the two switches.
    current_kernel_ = this;
    current_activity_ = a;
    a->host = this;
    if (!a->started) {
      a->started = true;
      a->fiber.Start(&Kernel::FiberMain, a);
    }
    a->fiber.Resume();
    current_kernel_ = nullptr;
    current_activity_ = nullptr;
    if (a->finished) a->fiber.ReleaseStack();
  } else {
    // kThread: hand the baton to `a` and block until it suspends, migrates
    // or finishes.
    if (!a->started) {
      a->started = true;
      a->host = this;
      a->thread = std::thread(&Kernel::ThreadMain, a);
    } else {
      {
        std::lock_guard<std::mutex> park(a->park_mu);
        a->host = this;
        a->resume = true;
      }
      a->park_cv.notify_one();
    }
    AwaitBaton();
  }
  // A pending migration is performed here — after the activity is fully
  // parked (its fiber suspended / its thread blocked on park_cv), and before
  // this shard publishes a higher lower bound, so the receiving shard can
  // neither resume a still-running context nor have advanced past the
  // message's timestamp.
  if (!a->finished && a->migrate_to != nullptr) {
    ITC_CHECK(group_ != nullptr);
    Kernel* target = std::exchange(a->migrate_to, nullptr);
    target->EnqueueMail(Mail{a->migrate_time, a->migrate_seq, a, /*adopt=*/false});
    group_->NoteMessageSent();
  }
}

void Kernel::EnqueueMail(const Mail& mail) {
  std::lock_guard<std::mutex> lock(mail_mu_);
  mail_.push_back(mail);
  if (mail.time < mail_min_.load()) mail_min_.store(mail.time);
}

void Kernel::DrainMail() {
  if (mail_min_.load() == kNeverSimTime) return;
  std::vector<Mail> taken;
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    taken.swap(mail_);
    // Keep the published bound covering the taken timestamps until the event
    // loop republishes from the heap: at no instant may this shard's
    // effective bound jump above work it actually holds (the group's
    // termination detector relies on that).
    SimTime floor = lb_.load();
    for (const Mail& m : taken) floor = std::min(floor, m.time);
    lb_.store(floor);
    mail_min_.store(kNeverSimTime);
  }
  for (const Mail& m : taken) {
    // itcfs-lint: allow(no-alloc-in-kernel-hot-path) -- adoption rate is bounded by cross-shard one-shot posts, not the event rate
    if (m.adopt) activities_.emplace_back(m.activity);
    PushArrival(m.time, m.seq, m.activity);
  }
}

void Kernel::PostMail(SimTime time, uint64_t seq, std::string name,
                      std::function<void()> body) {
  auto a = std::make_unique<Activity>();
  a->name = std::move(name);
  a->body = std::move(body);
  a->home = this;
  a->host = this;
  EnqueueMail(Mail{time, seq, a.release(), /*adopt=*/true});
}

void Kernel::MigrateOut(Kernel* target, SimTime t, uint64_t seq) {
  ITC_CHECK(current_kernel_ == this && current_activity_ != nullptr);
  ITC_CHECK(group_ != nullptr);
  Activity* self = current_activity_;
  self->migrate_to = target;
  self->migrate_time = t;
  self->migrate_seq = seq;
  if (backend_ == KernelBackend::kFiber) {
    self->fiber.Suspend();
    // Resumed by the target shard's Dispatch, which bound this thread's
    // locals before the switch. Do NOT write them here: the fiber now runs
    // on a different OS thread, and the compiler may have cached the TLS
    // address from before the suspend — the store would land in the origin
    // thread's slot.
  } else {
    {
      std::lock_guard<std::mutex> park(self->park_mu);
      self->resume = false;
    }
    ReturnBaton();
    std::unique_lock<std::mutex> park(self->park_mu);
    self->park_cv.wait(park, [self] { return self->resume; });
    // This activity's dedicated OS thread must now point at its new host
    // (same thread across the park, so the TLS slot is its own).
    current_kernel_ = self->host;
    current_activity_ = self;
  }
}

void Kernel::RecordTrace(const Event& e) {
  // In-place ring write: no growth, and activity names are short enough that
  // the string assignment reuses the slot's existing buffer after the first
  // lap (or SSO storage).
  TraceEntry& slot = trace_buf_[trace_head_];
  slot.time = e.time;
  slot.seq = e.seq;
  slot.activity = e.activity->name;
  trace_head_ = trace_head_ + 1 == trace_cap_ ? 0 : trace_head_ + 1;
  if (trace_count_ < trace_cap_) {
    ++trace_count_;
  } else {
    ++trace_dropped_;
  }
}

void Kernel::FiberMain(void* arg) {
  auto* a = static_cast<Activity*>(arg);
  std::exception_ptr caught;
  try {
    a->body();
  } catch (...) {
    caught = std::current_exception();
  }
  Kernel* host = a->host;  // the kernel dispatching this final slice
  if (caught != nullptr && host->failure_ == nullptr) host->failure_ = caught;
  a->finished = true;
  // Returning ends the fiber: Fiber::Trampoline switches back to Dispatch,
  // which releases the stack to the pool.
}

void Kernel::ThreadMain(Activity* a) {
  current_activity_ = a;
  current_kernel_ = a->host;
  std::exception_ptr caught;
  try {
    a->body();
  } catch (...) {
    caught = std::current_exception();
  }
  Kernel* host = current_kernel_;  // the kernel dispatching this final slice
  {
    std::lock_guard<std::mutex> lock(host->mu_);
    if (caught != nullptr && host->failure_ == nullptr) host->failure_ = caught;
    a->finished = true;
    host->baton_returned_ = true;
  }
  host->kernel_cv_.notify_one();
}

void Kernel::AwaitBaton() {
  std::unique_lock<std::mutex> lock(mu_);
  kernel_cv_.wait(lock, [this] { return baton_returned_; });
  baton_returned_ = false;
}

void Kernel::ReturnBaton() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    baton_returned_ = true;
  }
  kernel_cv_.notify_one();
}

void Kernel::WaitUntil(SimTime t) {
  ITC_CHECK(current_kernel_ == this && current_activity_ != nullptr);
  if (t <= now_) return;
  Activity* self = current_activity_;
  if (backend_ == KernelBackend::kFiber) {
    PushEvent(t, self, /*may_grow=*/group_ != nullptr);
    self->fiber.Suspend();
    return;
  }
  PushEvent(t, self, /*may_grow=*/group_ != nullptr);
  {
    std::lock_guard<std::mutex> park(self->park_mu);
    self->resume = false;
  }
  ReturnBaton();
  std::unique_lock<std::mutex> park(self->park_mu);
  self->park_cv.wait(park, [self] { return self->resume; });
}

Kernel* Kernel::Current() { return current_kernel_; }

void Kernel::EnableTrace(size_t capacity) {
  ITC_CHECK(capacity > 0);
  trace_cap_ = capacity;
  trace_buf_.assign(capacity, TraceEntry{});
  trace_head_ = 0;
  trace_count_ = 0;
  trace_dropped_ = 0;
}

std::vector<TraceEntry> Kernel::trace() const {
  std::vector<TraceEntry> out;
  out.reserve(trace_count_);
  const size_t start = (trace_head_ + trace_cap_ - trace_count_) % (trace_cap_ == 0 ? 1 : trace_cap_);
  for (size_t i = 0; i < trace_count_; ++i) {
    out.push_back(trace_buf_[(start + i) % trace_cap_]);
  }
  return out;
}

SimTime Charge(Resource& resource, SimTime arrival, SimTime demand) {
  Kernel* kernel = Kernel::Current();
  if (kernel != nullptr) kernel->WaitUntil(arrival);
  return resource.Serve(arrival, demand);
}

void AlignTo(SimTime t) {
  Kernel* kernel = Kernel::Current();
  if (kernel != nullptr) kernel->WaitUntil(t);
}

}  // namespace itc::sim
