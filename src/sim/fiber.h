// Pooled stackful fibers for the event kernel's user-space backend.
//
// A Fiber is a cooperative execution context whose stack comes from a
// process-wide pool and is returned to it when the fiber exits — so
// steady-state simulation reuses a small working set of stacks across
// activities and across kernel runs. A switch is a hand-written x86-64 SysV
// routine (fiber.cc) that saves only what a call must preserve: the
// callee-saved registers, the MXCSR and the x87 control word. So the
// per-event suspension cost is a few dozen instructions with no mutex, no
// condition variable, no system call (libc's swapcontext, which this
// replaced, spent most of its time in signal-mask system calls) and no
// kernel scheduler involvement. This is the LWP treatment the paper's
// revised Vice server applied to the real system (§3.5.2): many lightweight
// contexts inside one process instead of a process (here: an OS thread) per
// client.
//
// x86-64 only: fiber.cc stops the build with an #error on any other target.
// fiber.cc is also compiled with -fcf-protection=none, so no binary that
// links it is marked for user shadow stacks, under which a return onto
// another stack faults (docs/KERNEL.md).
//
// Every stack is 256 KB with a PROT_NONE guard page at its low end, so an
// overflow faults instead of corrupting a neighbouring mapping. Stacks are
// mmap-ed, linked through an intrusive freelist, and never unmapped: the pool
// lives for the process, which is what makes reuse across Scheduler::RunAll
// calls allocation-free.
//
// Sanitizers: under AddressSanitizer every switch is bracketed with
// __sanitizer_start_switch_fiber/__sanitizer_finish_switch_fiber so ASan
// tracks the active stack, and a borrowed stack's shadow is cleared at
// Start; under ThreadSanitizer every fiber carries a __tsan_create_fiber
// context with __tsan_switch_to_fiber called right before each switch, so
// TSan's shadow state follows execution across stack switches instead of
// reporting phantom races between frames of the same logical thread.
// Without a sanitizer the annotations compile to nothing.

#ifndef SRC_SIM_FIBER_H_
#define SRC_SIM_FIBER_H_

#include <cstddef>
#include <mutex>

namespace itc::sim {

// One pooled stack mapping. `limit` is the lowest usable address (just above
// the guard page); a fiber's stack grows down from limit + 256 KB.
// Pool-owned; fibers borrow via Acquire/Release.
struct FiberStack {
  unsigned char* limit = nullptr;
  FiberStack* next = nullptr;  // intrusive freelist link
};

// Process-wide stack pool. Acquire pops the freelist (mmap only on a miss);
// Release pushes back. The kernel acquires and releases per *activity*,
// never per event, so the mutex is rarely contended; it is there because a
// sharded kernel group takes stacks from several OS threads at once, one
// per shard.
class FiberStackPool {
 public:
  static FiberStackPool& Instance();

  FiberStack* Acquire();
  void Release(FiberStack* stack);

  // Stacks ever mmap-ed (monotone). A steady value across RunAll cycles is
  // the reuse guarantee the pool test pins down.
  size_t created() const;
  // Stacks currently in the freelist; equals created() when no fiber is live.
  size_t free_count() const;

 private:
  FiberStackPool() = default;

  mutable std::mutex mu_;
  FiberStack* free_ = nullptr;
  size_t created_ = 0;
  size_t free_count_ = 0;
};

// A stackful cooperative context. Lifecycle: Start (borrows a pooled stack),
// then alternating Resume (caller side) / Suspend (fiber side) until the
// entry function returns, after which Resume's caller sees the fiber
// finished and calls ReleaseStack. Not reentrant and not thread-safe: a
// fiber belongs to whichever thread resumes it, which for the kernel is the
// single thread driving Kernel::Run.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  Fiber() = default;
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Borrows a stack from the pool and lays out its first frame so the first
  // Resume enters `entry(arg)`, with the starter's floating-point control
  // state. When `entry` returns the fiber exits: the in-flight Resume
  // returns and the stack may be released. `entry` must not throw.
  void Start(Entry entry, void* arg);

  // Transfers control into the fiber; returns when it suspends or exits.
  void Resume();

  // Transfers control back to the resumer. Only legal on the fiber itself.
  void Suspend();

  // Returns this fiber's stack to the pool. Only legal once exited (or never
  // started); a live fiber's frames are on that stack.
  void ReleaseStack();

  bool started() const { return started_; }
  bool exited() const { return exited_; }

 private:
  [[noreturn]] static void Trampoline(Fiber* self);
  [[noreturn]] void Exit();

  void* sp_ = nullptr;         // the fiber's saved stack pointer while suspended
  void* caller_sp_ = nullptr;  // the resumer's, while the fiber runs
  FiberStack* stack_ = nullptr;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  bool started_ = false;
  bool exited_ = false;

  // ASan bookkeeping: the fiber's fake-stack handle while it is suspended,
  // and the resumer's stack bounds for annotating switches back.
  void* self_fake_stack_ = nullptr;
  const void* caller_stack_bottom_ = nullptr;
  size_t caller_stack_size_ = 0;

  // TSan bookkeeping: this fiber's shadow context (created at Start,
  // destroyed at ReleaseStack), and the resumer's context for switching
  // back. Unused (and left null) outside TSan builds.
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace itc::sim

#endif  // SRC_SIM_FIBER_H_
