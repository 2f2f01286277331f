// Shard-equivalence: the same multi-cluster campus day replayed on the solo
// kernel (one shard) and on a kernel group (one kernel per shard, one OS
// thread each) produces the same simulation, whether each cluster gets its
// own shard or several clusters fold onto one.
//
// The workload is the locality configuration the paper's cluster design
// targets: every user's home volume lives on the server in their own
// cluster and the shared system volume is released read-only to every
// server, so the day's traffic never crosses the backbone. For such days
// docs/KERNEL.md promises bit-identical intra-cluster event sequences: the
// (virtual time, activity) dispatch subsequence of each cluster under the
// solo kernel equals that cluster's subsequence of its shard's trace, for
// any shard count and either parking backend. End-of-day filesystem state
// and client/server statistics must agree exactly as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/campus/campus.h"
#include "src/sim/kernel.h"
#include "src/sim/scheduler.h"
#include "src/workload/populate.h"
#include "src/workload/synthetic_user.h"

namespace itc {
namespace {

constexpr uint32_t kClusters = 4;
constexpr uint32_t kWorkstationsPerCluster = 2;
constexpr uint64_t kSeed = 19850901;

struct DayResult {
  SimTime end = 0;
  uint32_t shards_used = 0;
  // Per-cluster dispatch sequence as (virtual time, activity name).
  std::vector<std::vector<std::pair<SimTime, std::string>>> cluster_traces;
  // End-of-day state: per-workstation Venus counters and a read-back of
  // every user's home working set (collected quiescently after the run).
  std::vector<std::vector<uint64_t>> venus_counters;
  std::vector<std::map<std::string, std::string>> home_files;
  std::map<vice::CallClass, uint64_t> call_histogram;
};

DayResult RunDay(uint32_t shards, sim::KernelBackend backend) {
  campus::CampusConfig config =
      campus::CampusConfig::Revised(kClusters, kWorkstationsPerCluster);
  config.seed = kSeed;
  campus::Campus campus(config);
  auto rootvol = campus.SetupRootVolume();
  EXPECT_TRUE(rootvol.ok());

  auto sysvol = campus.CreateSystemVolume("sys.sun", "/unix/sun", /*custodian=*/0);
  EXPECT_TRUE(sysvol.ok());
  EXPECT_EQ(workload::PopulateSystemBinaries(campus, *sysvol, /*count=*/12,
                                             kSeed ^ 0xb1),
            Status::kOk);
  // Read-only replica on every server: system reads stay in-cluster.
  std::vector<ServerId> sites;
  for (ServerId s = 0; s < campus.server_count(); ++s) sites.push_back(s);
  EXPECT_TRUE(campus.registry().ReleaseReadOnly(*sysvol, "sys.sun.ro", sites).ok());

  workload::UserDayConfig day;
  day.operations = 60;
  day.own_files = 12;
  day.system_files = 12;
  day.mean_think = Seconds(2);

  const net::Topology& topo = campus.network().topology();
  std::vector<std::unique_ptr<workload::SyntheticUser>> users;
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    const std::string name = "u" + std::to_string(w);
    auto home = campus.AddUserWithHome(name, "pw-" + name, campus.HomeServerOf(w));
    EXPECT_TRUE(home.ok());
    EXPECT_EQ(workload::PopulateUserFiles(campus, home->volume, day.own_files,
                                          kSeed ^ w),
              Status::kOk);
    auto& ws = campus.workstation(w);
    EXPECT_EQ(ws.LoginWithPassword(home->user, "pw-" + name), Status::kOk);
    users.push_back(std::make_unique<workload::SyntheticUser>(
        &ws, "/vice" + home->vice_path, "/bin", day, kSeed ^ (w * 7919)));
  }

  // Release the root volume read-only to every server as well — after the
  // home-volume mount points exist, so the clones carry them. Path traversal
  // (/vice, /vice/usr, /vice/unix) is the one remaining reason a cluster
  // would cross the backbone during this day; with a local replica of the
  // (day-immutable) root volume it stays home.
  EXPECT_TRUE(
      campus.registry().ReleaseReadOnly(*rootvol, "vice.root.ro", sites).ok());
  // Login traversal cached location hints (and root directories) fetched
  // from the read-write custodian before the release; flush so every Venus
  // starts the day cold and resolves through the new clones.
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    campus.workstation(w).venus().FlushCache();
  }

  sim::Scheduler sched;
  sched.set_shard_count(shards);
  sched.set_backend(backend);
  sched.set_lookahead(config.cost.BackboneLookahead());
  // Large enough that the ring never wraps for this day (~40k dispatches);
  // a wrapped trace would silently weaken the subsequence comparison.
  sched.EnableTrace(1u << 18);
  for (uint32_t w = 0; w < users.size(); ++w) {
    sched.Add(users[w].get(), topo.ClusterOfNthWorkstation(w));
  }

  DayResult result;
  result.end = sched.RunAll();

  // More shards than clusters clamp to one shard per cluster.
  result.shards_used = sched.shards_used();
  EXPECT_EQ(result.shards_used, std::min(shards, kClusters));

  // Project the dispatch order onto clusters by each "p<w>" activity's
  // cluster. The solo kernel leaves one trace, a group one per shard, and
  // cluster c's activities must all run on shard c % shards_used.
  result.cluster_traces.resize(kClusters);
  auto cluster_of_activity = [&](const std::string& activity) -> int {
    if (activity.empty() || activity[0] != 'p') return -1;
    const uint32_t w = static_cast<uint32_t>(std::stoul(activity.substr(1)));
    return static_cast<int>(topo.ClusterOfNthWorkstation(w));
  };
  using Traces = std::vector<std::vector<sim::TraceEntry>>;
  const Traces traces =
      result.shards_used == 1 ? Traces{sched.trace()} : sched.shard_traces();
  for (uint32_t s = 0; s < traces.size(); ++s) {
    for (const sim::TraceEntry& e : traces[s]) {
      const int c = cluster_of_activity(e.activity);
      EXPECT_GE(c, 0) << "unexpected cross-cluster activity " << e.activity;
      if (c < 0) continue;
      EXPECT_EQ(static_cast<uint32_t>(c) % result.shards_used, s)
          << e.activity << " @" << e.time;
      result.cluster_traces[c].emplace_back(e.time, e.activity);
    }
  }

  // End-of-day state, collected quiescently (no kernel running).
  EXPECT_EQ(sim::Kernel::Current(), nullptr);
  for (uint32_t w = 0; w < campus.workstation_count(); ++w) {
    const venus::VenusStats& s = campus.workstation(w).venus().stats();
    result.venus_counters.push_back({s.opens, s.cache_hits, s.fetches, s.stores,
                                     s.callback_breaks_received});
    std::map<std::string, std::string> files;
    for (uint32_t f = 0; f < day.own_files; ++f) {
      const std::string path = "/vice/usr/u" + std::to_string(w) + "/" +
                               workload::SyntheticUser::OwnFileName(f);
      auto data = campus.workstation(w).ReadWholeFile(path);
      EXPECT_TRUE(data.ok()) << path;
      if (data.ok()) files[path] = ToString(*data);
    }
    result.home_files.push_back(std::move(files));
  }
  result.call_histogram = campus.TotalCallHistogram();
  return result;
}

void ExpectSameDay(const DayResult& solo, const DayResult& sharded) {
  EXPECT_EQ(solo.end, sharded.end);
  for (uint32_t c = 0; c < kClusters; ++c) {
    EXPECT_EQ(solo.cluster_traces[c], sharded.cluster_traces[c])
        << "cluster " << c << " dispatch sequence diverged";
  }
  EXPECT_EQ(solo.venus_counters, sharded.venus_counters);
  EXPECT_EQ(solo.home_files, sharded.home_files);
  EXPECT_EQ(solo.call_histogram, sharded.call_histogram);
}

TEST(ShardEquivalenceTest, ShardedDayMatchesSoloKernelFiberBackend) {
  const DayResult solo = RunDay(1, sim::KernelBackend::kFiber);
  const DayResult sharded = RunDay(kClusters, sim::KernelBackend::kFiber);
  // The day actually exercised the campus.
  uint64_t dispatches = 0;
  for (const auto& t : solo.cluster_traces) dispatches += t.size();
  EXPECT_GT(dispatches, 1000u);
  ExpectSameDay(solo, sharded);
}

TEST(ShardEquivalenceTest, ShardedDayMatchesSoloKernelThreadBackend) {
  const DayResult solo = RunDay(1, sim::KernelBackend::kThread);
  const DayResult sharded = RunDay(kClusters, sim::KernelBackend::kThread);
  ExpectSameDay(solo, sharded);
}

// Several clusters folded onto each shard (the placement a 400-cluster
// campus on 8 shards runs), and a request for more shards than clusters.
TEST(ShardEquivalenceTest, FoldedAndClampedPlacementsMatchSoloKernel) {
  const DayResult solo = RunDay(1, sim::KernelBackend::kFiber);
  for (uint32_t shards : {2u, 3u, 2 * kClusters}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectSameDay(solo, RunDay(shards, sim::KernelBackend::kFiber));
  }
}

}  // namespace
}  // namespace itc
