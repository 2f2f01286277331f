#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "src/common/logging.h"

#if !defined(__x86_64__)
#error "fiber.cc switches stacks in x86-64 assembly only: port itc_sim_fiber_switch (with its entry stub and the SwitchFrame that Fiber::Start lays out) to this target"
#endif

// AddressSanitizer's fiber-switch interface. GCC defines __SANITIZE_ADDRESS__,
// Clang reports it through __has_feature; either way the annotations are
// required for ASan to follow execution across stack switches, and compile to
// nothing in plain builds.
#if defined(__SANITIZE_ADDRESS__)
#define ITC_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ITC_FIBER_ASAN 1
#endif
#endif
#ifndef ITC_FIBER_ASAN
#define ITC_FIBER_ASAN 0
#endif

#if ITC_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer's fiber interface, same detection dance: GCC defines
// __SANITIZE_THREAD__, Clang reports it through __has_feature. TSan keeps
// per-"thread" shadow state (vector clocks, lock sets); without these
// annotations a stack switch teleports one OS thread between stacks and TSan
// misattributes every access after the switch.
#if defined(__SANITIZE_THREAD__)
#define ITC_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ITC_FIBER_TSAN 1
#endif
#endif
#ifndef ITC_FIBER_TSAN
#define ITC_FIBER_TSAN 0
#endif

#if ITC_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// The context switch. itc_sim_fiber_switch(save_sp, load_sp) pushes the
// x86-64 SysV callee-saved state (rbp, rbx, r12-r15, then the MXCSR and the
// x87 control word in one 8-byte slot) on the current stack, stores the
// stack pointer to *save_sp, loads load_sp and pops the same state from
// there; its `ret` then returns into whatever called the switch on that
// stack. The ABI lets a call clobber every other register, so nothing else
// is saved, and the signal mask is never touched: no system call.
//
// A fresh fiber's stack holds a SwitchFrame whose return address is
// itc_sim_fiber_enter. It calls the function in r13 with the pointer in r12
// as its argument: Fiber::Trampoline and the Fiber. Its CFI marks the
// return address undefined, so unwinders stop there.
extern "C" {
void itc_sim_fiber_switch(void** save_sp, void* load_sp);
void itc_sim_fiber_enter();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl itc_sim_fiber_switch
  .hidden itc_sim_fiber_switch
  .type itc_sim_fiber_switch, @function
itc_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size itc_sim_fiber_switch, .-itc_sim_fiber_switch

  .p2align 4
  .globl itc_sim_fiber_enter
  .hidden itc_sim_fiber_enter
  .type itc_sim_fiber_enter, @function
itc_sim_fiber_enter:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size itc_sim_fiber_enter, .-itc_sim_fiber_enter
  .popsection
)");

namespace itc::sim {

namespace {

// The usable bytes of every stack; a guard page sits below them.
constexpr size_t kStackBytes = 256 * 1024;

// What itc_sim_fiber_switch pops, lowest address first.
struct SwitchFrame {
  uint32_t mxcsr = 0;
  uint16_t x87_control = 0;
  uint16_t pad = 0;
  void* r15 = nullptr;
  void* r14 = nullptr;
  void* r13 = nullptr;
  void* r12 = nullptr;
  void* rbx = nullptr;
  void* rbp = nullptr;  // null ends a frame-pointer walk
  void* ret = nullptr;
};
// The frame ends at the 16-byte-aligned stack top, so itc_sim_fiber_enter
// runs with the stack aligned as the ABI requires before its call.
static_assert(sizeof(SwitchFrame) % 16 == 0);

// Clears stale shadow from a borrowed stack: an exited fiber leaves its
// last frames poisoned, and no interceptor clears them on this switch.
inline void AsanUnpoisonStack(const FiberStack* stack) {
#if ITC_FIBER_ASAN
  __asan_unpoison_memory_region(stack->limit, kStackBytes);
#else
  (void)stack;
#endif
}

// `fake` saves the outgoing context's ASan fake-stack handle (nullptr when
// the outgoing context is exiting for good, which tells ASan to free it);
// bottom/size describe the stack being switched *to*.
inline void AsanStartSwitch(void** fake, const void* bottom, size_t size) {
#if ITC_FIBER_ASAN
  __sanitizer_start_switch_fiber(fake, bottom, size);
#else
  (void)fake;
  (void)bottom;
  (void)size;
#endif
}

// Called first thing after control arrives on a stack: `fake` is the handle
// that stack saved when it last switched away (nullptr on first entry), and
// bottom/size receive the bounds of the stack control came *from*.
inline void AsanFinishSwitch(void* fake, const void** bottom_old, size_t* size_old) {
#if ITC_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, bottom_old, size_old);
#else
  (void)fake;
  (void)bottom_old;
  (void)size_old;
#endif
}

// A fresh TSan context for a fiber about to run. nullptr (and no-ops below)
// outside TSan builds.
inline void* TsanCreateFiber() {
#if ITC_FIBER_TSAN
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void TsanDestroyFiber(void* fiber) {
#if ITC_FIBER_TSAN
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

inline void* TsanCurrentFiber() {
#if ITC_FIBER_TSAN
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

// Called immediately before the switch that moves control to the context
// `fiber` shadows.
inline void TsanSwitchToFiber(void* fiber) {
#if ITC_FIBER_TSAN
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

}  // namespace

FiberStackPool& FiberStackPool::Instance() {
  static FiberStackPool pool;
  return pool;
}

FiberStack* FiberStackPool::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_ != nullptr) {
    FiberStack* s = free_;
    free_ = s->next;
    s->next = nullptr;
    --free_count_;
    return s;
  }
  const size_t guard = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  void* m = mmap(nullptr, kStackBytes + guard, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  ITC_CHECK(m != MAP_FAILED);
  ITC_CHECK(mprotect(m, guard, PROT_NONE) == 0);
  auto* s = new FiberStack;
  s->limit = static_cast<unsigned char*>(m) + guard;
  ++created_;
  return s;
}

void FiberStackPool::Release(FiberStack* stack) {
  ITC_CHECK(stack != nullptr && stack->next == nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  stack->next = free_;
  free_ = stack;
  ++free_count_;
}

size_t FiberStackPool::created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return created_;
}

size_t FiberStackPool::free_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_count_;
}

Fiber::~Fiber() {
  // A live fiber still has frames on its stack; destroying it would hand
  // those frames to the next borrower. The kernel runs every activity to
  // completion before tearing down.
  ITC_CHECK(stack_ == nullptr || exited_ || !started_);
  ReleaseStack();
}

void Fiber::Start(Entry entry, void* arg) {
  ITC_CHECK(!started_ && stack_ == nullptr);
  stack_ = FiberStackPool::Instance().Acquire();
  AsanUnpoisonStack(stack_);
  tsan_fiber_ = TsanCreateFiber();
  entry_ = entry;
  arg_ = arg;
  started_ = true;
  const uintptr_t top =
      reinterpret_cast<uintptr_t>(stack_->limit + kStackBytes) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<SwitchFrame*>(top - sizeof(SwitchFrame));
  *frame = SwitchFrame{};
  // The fiber starts with the starter's rounding and exception masks.
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(frame->mxcsr), "=m"(frame->x87_control));
  frame->r12 = this;
  frame->r13 = reinterpret_cast<void*>(&Fiber::Trampoline);
  frame->ret = reinterpret_cast<void*>(&itc_sim_fiber_enter);
  sp_ = frame;
}

void Fiber::Trampoline(Fiber* f) {
  // First time on this stack: no saved fake stack yet; learn the resumer's
  // bounds so Suspend/Exit can annotate switches back.
  AsanFinishSwitch(nullptr, &f->caller_stack_bottom_, &f->caller_stack_size_);
  f->entry_(f->arg_);
  f->Exit();
}

void Fiber::Resume() {
  ITC_CHECK(started_ && !exited_ && stack_ != nullptr);
  void* caller_fake = nullptr;
  AsanStartSwitch(&caller_fake, stack_->limit, kStackBytes);
  tsan_caller_ = TsanCurrentFiber();
  TsanSwitchToFiber(tsan_fiber_);
  itc_sim_fiber_switch(&caller_sp_, sp_);
  // The fiber suspended or exited; we are back on the caller's stack.
  AsanFinishSwitch(caller_fake, nullptr, nullptr);
}

void Fiber::Suspend() {
  AsanStartSwitch(&self_fake_stack_, caller_stack_bottom_, caller_stack_size_);
  TsanSwitchToFiber(tsan_caller_);
  itc_sim_fiber_switch(&sp_, caller_sp_);
  // Resumed; refresh the resumer's bounds (a later Resume may come from a
  // different frame of the kernel loop).
  AsanFinishSwitch(self_fake_stack_, &caller_stack_bottom_, &caller_stack_size_);
}

void Fiber::Exit() {
  exited_ = true;
  // nullptr fake-stack handle: this context is gone for good, so ASan frees
  // its fake stack; the real stack goes back to the pool via ReleaseStack.
  AsanStartSwitch(nullptr, caller_stack_bottom_, caller_stack_size_);
  // The shadow context outlives this last switch; ReleaseStack (always on
  // the resumer's side) destroys it.
  TsanSwitchToFiber(tsan_caller_);
  itc_sim_fiber_switch(&sp_, caller_sp_);
  __builtin_unreachable();
}

void Fiber::ReleaseStack() {
  if (stack_ == nullptr) return;
  ITC_CHECK(exited_ || !started_);
  TsanDestroyFiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
  FiberStackPool::Instance().Release(stack_);
  stack_ = nullptr;
}

}  // namespace itc::sim
