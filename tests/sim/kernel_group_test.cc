// Sharded multi-kernel runtime (src/sim/kernel_group.h): migration,
// one-shot posts, determinism, termination, and shard-count independence.
//
// The contract under test is the one docs/KERNEL.md states: with a fixed
// lookahead and fixed domain placement, every shard's event order is a pure
// function of the simulation — independent of OS thread scheduling, of the
// parking backend, and of how many shards the domains fold into.

#include "src/sim/kernel_group.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/kernel.h"

namespace itc::sim {
namespace {

constexpr SimTime kLookahead = 10'000;  // 10ms, the campus backbone floor

std::vector<KernelBackend> Backends() {
  return {KernelBackend::kFiber, KernelBackend::kThread};
}

TEST(KernelGroupTest, SpawnAndRunSingleShard) {
  for (KernelBackend backend : Backends()) {
    KernelGroup group(1, backend, kLookahead);
    std::vector<int> order;
    group.Spawn(0, "a", 200, [&] { order.push_back(2); });
    group.Spawn(0, "b", 100, [&] { order.push_back(1); });
    group.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(group.events_dispatched(), 2u);
  }
}

TEST(KernelGroupTest, MigrationRunsBodyOnTargetShardInTimeOrder) {
  for (KernelBackend backend : Backends()) {
    KernelGroup group(2, backend, kLookahead);
    std::vector<std::string> log;  // written on shard 1 only
    group.Spawn(1, "native", 5'000, [&] { log.push_back("native@5ms"); });
    group.Spawn(0, "traveller", 0, [&] {
      KernelGroup* g = KernelGroup::Current();
      ASSERT_NE(g, nullptr);
      EXPECT_EQ(Kernel::Current(), &g->shard(0));
      g->MigrateToDomain(1, Kernel::Current()->now() + kLookahead);
      EXPECT_EQ(Kernel::Current(), &g->shard(1));
      EXPECT_EQ(Kernel::Current()->now(), kLookahead);
      log.push_back("traveller@10ms");
      // And home again.
      g->MigrateToDomain(0, Kernel::Current()->now() + kLookahead);
      EXPECT_EQ(Kernel::Current(), &g->shard(0));
    });
    group.Run();
    // Shard 1 dispatches its native 5ms activity before the 10ms arrival.
    EXPECT_EQ(log, (std::vector<std::string>{"native@5ms", "traveller@10ms"}));
  }
}

TEST(KernelGroupTest, PostDeliversOneShotActivityAtArrivalTime) {
  for (KernelBackend backend : Backends()) {
    KernelGroup group(2, backend, kLookahead);
    SimTime delivered_at = 0;
    group.Spawn(0, "sender", 1'000, [&] {
      KernelGroup::Current()->Post(1, Kernel::Current()->now() + kLookahead,
                                   "oneshot", [&] {
                                     EXPECT_EQ(Kernel::Current(),
                                               &KernelGroup::Current()->shard(1));
                                     delivered_at = Kernel::Current()->now();
                                   });
      // Fire-and-forget: the sender's clock does not advance.
      EXPECT_EQ(Kernel::Current()->now(), 1'000u);
    });
    group.Run();
    EXPECT_EQ(delivered_at, 11'000u);
  }
}

TEST(KernelGroupTest, LookaheadContractIsChecked) {
  KernelGroup group(2, KernelBackend::kFiber, kLookahead);
  group.Spawn(0, "ok", 0, [&] {
    // Exactly lookahead away is legal; the death test for below-lookahead
    // timestamps lives in the lint/ITC_CHECK suite (aborts, not throws).
    KernelGroup::Current()->MigrateToDomain(1, kLookahead);
  });
  group.Run();
}

// Ping-pong keeps both shards exchanging work and exercises the
// termination scan: each hop is a cross-shard message in flight exactly
// when the other shard looks idle.
TEST(KernelGroupTest, PingPongTerminates) {
  for (KernelBackend backend : Backends()) {
    KernelGroup group(2, backend, kLookahead);
    int hops = 0;
    group.Spawn(0, "pingpong", 0, [&] {
      for (int i = 0; i < 32; ++i) {
        KernelGroup* g = KernelGroup::Current();
        g->MigrateToDomain(i % 2 == 0 ? 1 : 0,
                           Kernel::Current()->now() + kLookahead);
        hops += 1;
      }
    });
    group.Run();
    EXPECT_EQ(hops, 32);
  }
}

TEST(KernelGroupTest, ManyCrossShardActivitiesAllComplete) {
  for (KernelBackend backend : Backends()) {
    KernelGroup group(4, backend, kLookahead);
    std::atomic<int> done{0};
    for (uint32_t d = 0; d < 4; ++d) {
      for (int i = 0; i < 8; ++i) {
        group.Spawn(d, "w" + std::to_string(d) + "." + std::to_string(i),
                    i * 1'000, [&, d] {
                      KernelGroup* g = KernelGroup::Current();
                      for (uint32_t hop = 1; hop <= 3; ++hop) {
                        g->MigrateToDomain((d + hop) % 4,
                                           Kernel::Current()->now() + kLookahead);
                      }
                      done.fetch_add(1, std::memory_order_relaxed);
                    });
      }
    }
    group.Run();
    EXPECT_EQ(done.load(), 32);
  }
}

// Captures one shard's full trace as (time, name) pairs.
std::vector<std::pair<SimTime, std::string>> Flatten(
    const std::vector<TraceEntry>& trace) {
  std::vector<std::pair<SimTime, std::string>> out;
  out.reserve(trace.size());
  for (const TraceEntry& e : trace) out.emplace_back(e.time, e.activity);
  return out;
}

// The same program, run with the same shard count, replays the same trace
// on every shard — across repeated runs and across parking backends.
TEST(KernelGroupTest, DeterministicAcrossRunsAndBackends) {
  auto run = [&](KernelBackend backend) {
    KernelGroup group(3, backend, kLookahead);
    group.EnableTrace();
    for (uint32_t d = 0; d < 3; ++d) {
      group.Spawn(d, "p" + std::to_string(d), d * 100, [d] {
        KernelGroup* g = KernelGroup::Current();
        for (int i = 0; i < 5; ++i) {
          g->MigrateToDomain((d + 1) % 3, Kernel::Current()->now() + kLookahead);
          g->Post((d + 2) % 3, Kernel::Current()->now() + kLookahead,
                  "post" + std::to_string(d), [] {});
        }
      });
    }
    group.Run();
    std::vector<std::vector<std::pair<SimTime, std::string>>> traces;
    for (uint32_t i = 0; i < 3; ++i) traces.push_back(Flatten(group.shard_trace(i)));
    return traces;
  };
  const auto fiber1 = run(KernelBackend::kFiber);
  const auto fiber2 = run(KernelBackend::kFiber);
  const auto thread = run(KernelBackend::kThread);
  EXPECT_EQ(fiber1, fiber2);
  EXPECT_EQ(fiber1, thread);
}

// Folding 4 domains onto 1 shard yields the same per-domain event order as
// 4 shards: same-kernel cross-domain hops go through the same arrival-class
// mailbox path as true cross-shard hops.
TEST(KernelGroupTest, ShardCountIndependence) {
  auto run = [&](uint32_t shard_count) {
    KernelGroup group(shard_count, KernelBackend::kFiber, kLookahead);
    group.EnableTrace();
    for (uint32_t d = 0; d < 4; ++d) {
      group.Spawn(d, "p" + std::to_string(d), d * 137, [d] {
        KernelGroup* g = KernelGroup::Current();
        for (int i = 0; i < 4; ++i) {
          g->MigrateToDomain((d + 1) % 4, Kernel::Current()->now() + kLookahead);
        }
      });
    }
    group.Run();
    // Merge all shards' traces into one time-ordered sequence per run;
    // with 1 shard that is just its single trace.
    std::vector<std::pair<SimTime, std::string>> merged;
    for (uint32_t i = 0; i < shard_count; ++i) {
      const auto t = Flatten(group.shard_trace(i));
      merged.insert(merged.end(), t.begin(), t.end());
    }
    std::sort(merged.begin(), merged.end());
    return merged;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(2), run(4));
}

TEST(KernelGroupTest, ActivityFailurePropagatesFromAnyShard) {
  KernelGroup group(2, KernelBackend::kFiber, kLookahead);
  group.Spawn(1, "boom", 50, [] { throw std::runtime_error("shard 1 failed"); });
  group.Spawn(0, "fine", 0, [] {});
  EXPECT_THROW(group.Run(), std::runtime_error);
}

// No shard may dispatch past a cross-shard handoff still in flight: the
// arrival would land below the receiver's clock and fail its ITC_CHECK.
// A gate whose scan of the other shards' bounds can straddle a send lets
// that happen only now and then, so the ring of migrations and posts runs
// 200 times; a gate without the messages-sent check aborted here in each of
// 20 tries.
TEST(KernelGroupTest, GateNeverPassesAHandoffInFlight) {
  for (int run = 0; run < 200; ++run) {
    KernelGroup group(3, KernelBackend::kFiber, kLookahead);
    for (uint32_t d = 0; d < 3; ++d) {
      group.Spawn(d, "p" + std::to_string(d), d * 100, [d] {
        KernelGroup* g = KernelGroup::Current();
        for (int i = 0; i < 20; ++i) {
          g->MigrateToDomain((d + 1) % 3, Kernel::Current()->now() + kLookahead);
          g->Post((d + 2) % 3, Kernel::Current()->now() + kLookahead, "post", [] {});
        }
      });
    }
    group.Run();
  }
}

}  // namespace
}  // namespace itc::sim
