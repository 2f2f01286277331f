// The contract of the fiber switch itself (src/sim/fiber.h), driven through
// sim::Fiber directly so it runs whatever backend the kernel defaults to:
// per-fiber floating-point control state, the stack alignment the ABI
// promises at every entry and resume, callee-saved state across many
// interleaved switches, and stack reuse through the pool.

#include "src/sim/fiber.h"

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace itc::sim {
namespace {

// What a fiber body sees: the fiber it runs on, for Suspend.
struct Body {
  Fiber* fiber = nullptr;
};

// Runs `fiber` until it exits, resuming it each time it suspends.
void RunToExit(Fiber& fiber) {
  while (!fiber.exited()) fiber.Resume();
  fiber.ReleaseStack();
}

// 1/3 by SSE division. Its last bit shows the MXCSR rounding mode, which
// fegetround (reading the x87 control word) does not.
[[gnu::noinline]] double Third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

double ThirdRounded(int mode) {
  const int saved = std::fegetround();
  std::fesetround(mode);
  const double third = Third();
  std::fesetround(saved);
  return third;
}

struct RoundingBody : Body {
  int seen_after_first = -1;
  int seen_after_second = -1;
  double third_after_first = 0;
  double third_after_second = 0;
};

TEST(FiberSwitch, RoundingModeIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double up = ThirdRounded(FE_UPWARD);
  const double down = ThirdRounded(FE_DOWNWARD);
  ASSERT_NE(up, down);
  RoundingBody body;
  Fiber fiber;
  body.fiber = &fiber;
  fiber.Start(
      [](void* arg) {
        auto* b = static_cast<RoundingBody*>(arg);
        std::fesetround(FE_UPWARD);
        b->fiber->Suspend();
        b->seen_after_first = std::fegetround();
        b->third_after_first = Third();
        b->fiber->Suspend();
        b->seen_after_second = std::fegetround();
        b->third_after_second = Third();
        std::fesetround(FE_TONEAREST);
      },
      &body);
  fiber.Resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // the resumer keeps its own
  EXPECT_EQ(Third(), 1.0 / 3.0);
  std::fesetround(FE_DOWNWARD);
  fiber.Resume();
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  EXPECT_EQ(Third(), down);
  fiber.Resume();
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  EXPECT_EQ(Third(), down);
  ASSERT_TRUE(fiber.exited());
  fiber.ReleaseStack();
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(body.seen_after_first, FE_UPWARD);
  EXPECT_EQ(body.seen_after_second, FE_UPWARD);
  EXPECT_EQ(body.third_after_first, up);
  EXPECT_EQ(body.third_after_second, up);
}

// An opaque sink so the compiler cannot prove an address's low bits.
uintptr_t Launder(const void* p) {
  uintptr_t v = reinterpret_cast<uintptr_t>(p);
  asm volatile("" : "+r"(v));
  return v;
}

struct AlignmentBody : Body {
  static constexpr int kResumes = 4;
  std::vector<uintptr_t> misalignment;  // one per entry or resume
  std::vector<std::string> printed;
};

// Records what code on the fiber's stack sees right now.
[[gnu::noinline]] void Probe(AlignmentBody* b, double value) {
  alignas(16) unsigned char slot[16];
  std::memset(slot, 0, sizeof(slot));
  b->misalignment.push_back(Launder(slot) % 16);
  char text[32];
  std::snprintf(text, sizeof(text), "%.3f", value);
  b->printed.push_back(text);
}

TEST(FiberSwitch, StackIsAlignedAtEntryAndAfterEveryResume) {
  AlignmentBody body;
  Fiber fiber;
  body.fiber = &fiber;
  fiber.Start(
      [](void* arg) {
        auto* b = static_cast<AlignmentBody*>(arg);
        Probe(b, 0.25);
        for (int i = 1; i <= AlignmentBody::kResumes; ++i) {
          b->fiber->Suspend();
          Probe(b, 0.25 + i);
        }
      },
      &body);
  RunToExit(fiber);
  ASSERT_EQ(body.misalignment.size(), size_t{AlignmentBody::kResumes + 1});
  for (size_t i = 0; i < body.misalignment.size(); ++i) {
    EXPECT_EQ(body.misalignment[i], 0u) << "probe " << i;
    EXPECT_EQ(body.printed[i], std::to_string(i) + ".250") << "probe " << i;
  }
}

struct RoundRobinBody : Body {
  static constexpr int kRounds = 1000;
  uint64_t id = 0;
  int mismatches = 0;
  int rounds_done = 0;
};

// A dozen locals of several types that stay live across every Suspend, each
// checked against its closed form after every resume.
void RoundRobinMain(void* arg) {
  auto* b = static_cast<RoundRobinBody*>(arg);
  const uint64_t id = b->id;
  uint64_t a = id;
  uint64_t c = id * 3 + 1;
  uint32_t d = static_cast<uint32_t>(id) ^ 0x5a5a5a5au;
  int64_t e = -static_cast<int64_t>(id);
  uint16_t f = static_cast<uint16_t>(id * 7);
  uint8_t g = static_cast<uint8_t>(id);
  double h = static_cast<double>(id) * 0.5;
  float k = static_cast<float>(id) + 0.25f;
  uint64_t m = ~id;
  uint64_t n = id << 20;
  int p = static_cast<int>(id) - 1000;
  const void* q = b;
  for (int r = 0; r < RoundRobinBody::kRounds; ++r) {
    b->fiber->Suspend();
    const uint64_t round = static_cast<uint64_t>(r);
    const bool ok = a == id + round && c == id * 3 + 1 + 3 * round &&
                    d == ((static_cast<uint32_t>(id) ^ 0x5a5a5a5au) + static_cast<uint32_t>(r)) &&
                    e == -static_cast<int64_t>(id) - r &&
                    f == static_cast<uint16_t>(id * 7 + round) &&
                    g == static_cast<uint8_t>(id + round) &&
                    h == static_cast<double>(id) * 0.5 + static_cast<double>(r) &&
                    k == static_cast<float>(id) + 0.25f + static_cast<float>(r) &&
                    m == ~id - round && n == (id << 20) + round * 2 &&
                    p == static_cast<int>(id) - 1000 + r && q == b;
    if (!ok) ++b->mismatches;
    a += 1;
    c += 3;
    d += 1;
    e -= 1;
    f = static_cast<uint16_t>(f + 1);
    g = static_cast<uint8_t>(g + 1);
    h += 1.0;
    k += 1.0f;
    m -= 1;
    n += 2;
    p += 1;
    b->rounds_done = r + 1;
  }
}

TEST(FiberSwitch, RoundRobinKeepsEveryFibersLocals) {
  constexpr int kFibers = 64;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<RoundRobinBody> bodies(kFibers);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>());
    bodies[i].fiber = fibers.back().get();
    bodies[i].id = 7919ull * static_cast<uint64_t>(i + 1);
    fibers.back()->Start(&RoundRobinMain, &bodies[i]);
  }
  bool live = true;
  while (live) {
    live = false;
    for (auto& fiber : fibers) {
      if (fiber->exited()) continue;
      fiber->Resume();
      live = true;
    }
  }
  for (int i = 0; i < kFibers; ++i) {
    fibers[i]->ReleaseStack();
    EXPECT_EQ(bodies[i].rounds_done, RoundRobinBody::kRounds) << "fiber " << i;
    EXPECT_EQ(bodies[i].mismatches, 0) << "fiber " << i;
  }
}

TEST(FiberSwitch, NextStartReusesAnExitedFibersStack) {
  FiberStackPool& pool = FiberStackPool::Instance();
  int runs = 0;
  {
    Fiber warm;
    warm.Start([](void* arg) { ++*static_cast<int*>(arg); }, &runs);
    RunToExit(warm);
  }
  const size_t created = pool.created();
  for (int i = 0; i < 8; ++i) {
    Fiber fiber;
    fiber.Start([](void* arg) { ++*static_cast<int*>(arg); }, &runs);
    EXPECT_EQ(pool.created(), created) << "start " << i;
    RunToExit(fiber);
  }
  EXPECT_EQ(runs, 9);
  EXPECT_EQ(pool.free_count(), pool.created());
}

}  // namespace
}  // namespace itc::sim
