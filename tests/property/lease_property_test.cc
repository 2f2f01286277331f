// The promise table (CallbackManager) vs a brute-force oracle under random
// interleavings of grant / renew / release / break / crash-restart, with
// lease holders and never-expiring (callback) holders in the same walk.
//
// The oracle is the obvious map<(fid, holder) -> expiry> plus an embargo
// timestamp, recomputed from first principles at every step. Invariants
// checked after every operation:
//   * the table's live-promise view (HasPromise, promise_count) matches the
//     oracle exactly;
//   * no lease survives one term past the current time, and no callback
//     promise ever lapses;
//   * Break returns exactly max(at, embargo end, latest expiry among live
//     unreachable lease holders) — in particular it never blocks at all when
//     every holder is reachable, never waits for a callback holder, and
//     never blocks past the earliest moment every outstanding lease has
//     lapsed;
//   * reachable holders are notified exactly once per break, the writer and
//     lapsed holders never; unreachable holders count as lost, and the lease
//     holders among them as waited out.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"
#include "src/vice/callback_manager.h"

namespace itc::vice {
namespace {

class RecordingReceiver : public CallbackReceiver {
 public:
  explicit RecordingReceiver(NodeId node) : node_(node) {}
  void OnCallbackBroken(const Fid& fid) override { broken.push_back(fid); }
  NodeId callback_node() const override { return node_; }
  std::vector<Fid> broken;

 private:
  NodeId node_;
};

constexpr int kFids = 3;
constexpr int kHolders = 3;

TEST(LeasePropertyTest, MatchesBruteForceOracleUnderRandomInterleavings) {
  const sim::CostModel cost = sim::CostModel::Default1985();
  const SimTime kTerm = Seconds(30);
  const Fid fids[kFids] = {{1, 1, 1}, {1, 2, 2}, {2, 3, 3}};

  for (uint64_t iter = 0; iter < 150; ++iter) {
    Rng rng(0x1ea5e5ull * 2654435761u + iter);
    net::Topology topo(net::TopologyConfig{1, 1, kHolders});
    net::Network network(topo, cost);
    sim::Resource cpu("cpu");
    const NodeId server = topo.ServerNode(0, 0);

    // A random subset of holders is cut off for the whole run; reachability
    // is then a constant the oracle knows without reimplementing the
    // partition arithmetic. Another random subset holds callback promises,
    // which never expire; the rest hold leases.
    std::vector<std::unique_ptr<RecordingReceiver>> holders;
    bool reachable[kHolders];
    SimTime term[kHolders];
    for (int h = 0; h < kHolders; ++h) {
      const NodeId node = topo.WorkstationNode(0, static_cast<uint32_t>(h));
      holders.push_back(std::make_unique<RecordingReceiver>(node));
      reachable[h] = !rng.Chance(0.4);
      if (!reachable[h]) network.AddPartition({{node}, 0, SimTime{1} << 60});
      term[h] = rng.Chance(0.3) ? kNeverExpires : kTerm;
    }
    const auto expiry_at = [&](SimTime now, int h) {
      return term[h] == kNeverExpires ? kNeverExpires : now + kTerm;
    };

    CallbackManager mgr;
    SimTime expiry[kFids][kHolders] = {};
    bool held[kFids][kHolders] = {};
    SimTime suspended = 0;
    CallbackStats want_stats;
    // Op times sit on a 13ms + k*25ms grid, so the sub-millisecond CPU
    // charges inside Break never straddle a partition boundary.
    SimTime now = Millis(13);

    for (int op = 0; op < 120; ++op) {
      now += Millis(25) * rng.Range(1, 40);
      const int f = static_cast<int>(rng.Below(kFids));
      const int h = static_cast<int>(rng.Below(kHolders));

      switch (rng.Below(6)) {
        case 0: {  // grant
          const SimTime got = mgr.Register(fids[f], holders[h].get(), now, term[h]);
          const SimTime want = now < suspended ? 0 : expiry_at(now, h);
          ASSERT_EQ(got, want) << "iter=" << iter << " op=" << op;
          if (want != 0) {
            held[f][h] = true;
            expiry[f][h] = want;
          } else {
            want_stats.refused += 1;
          }
          break;
        }
        case 1: {  // batch renew of a random fid subset
          std::vector<Fid> ask;
          for (int i = 0; i < kFids; ++i) {
            if (rng.Chance(0.6)) ask.push_back(fids[i]);
          }
          const std::vector<Fid> rejected = mgr.RenewLeases(holders[h].get(), ask, now, term[h]);
          std::vector<Fid> want_rejected;
          for (const Fid& fid : ask) {
            int i = 0;
            while (!(fids[i] == fid)) ++i;
            const bool live = now >= suspended && held[i][h] && expiry[i][h] > now;
            if (live) {
              expiry[i][h] = expiry_at(now, h);
            } else {
              want_rejected.push_back(fid);
            }
          }
          ASSERT_EQ(rejected, want_rejected) << "iter=" << iter << " op=" << op;
          break;
        }
        case 2: {  // voluntary release
          mgr.Release(fids[f], holders[h].get());
          held[f][h] = false;
          break;
        }
        case 3: {  // break-on-mutate; h doubles as the (optional) writer
          const bool has_writer = rng.Chance(0.5);
          CallbackReceiver* writer = has_writer ? holders[h].get() : nullptr;
          size_t broken_before[kHolders];
          for (int i = 0; i < kHolders; ++i) broken_before[i] = holders[i]->broken.size();

          const SimTime safe = mgr.Break(fids[f], writer, now, server, &network, &cpu, cost);

          SimTime want_safe = std::max(now, suspended);
          for (int i = 0; i < kHolders; ++i) {
            const bool is_writer = has_writer && i == h;
            const bool live = held[f][i] && expiry[f][i] > now;
            const bool notified = live && !is_writer && reachable[i];
            if (live && !is_writer && !reachable[i]) {
              want_stats.lost += 1;
              if (term[i] != kNeverExpires) {  // a callback holder is never waited for
                want_stats.waited_out += 1;
                want_safe = std::max(want_safe, expiry[f][i]);
              }
            }
            if (notified) want_stats.broken += 1;
            EXPECT_EQ(holders[i]->broken.size(), broken_before[i] + (notified ? 1u : 0u))
                << "iter=" << iter << " op=" << op << " holder=" << i;
            if (!is_writer) held[f][i] = false;  // table forgets all but the writer
          }
          ASSERT_EQ(safe, want_safe) << "iter=" << iter << " op=" << op;
          // Never blocks past the last possible expiry on the file.
          EXPECT_LE(safe, std::max(now, suspended) + kTerm);
          break;
        }
        case 4: {  // crash + restart: volatile table, one-term grant embargo
          mgr.DropAllPromises();
          mgr.SuspendLeasesUntil(now + kTerm);
          for (int i = 0; i < kFids; ++i) {
            for (int j = 0; j < kHolders; ++j) held[i][j] = false;
          }
          suspended = now + kTerm;
          break;
        }
        default: {  // holder disconnects: everything it had goes
          mgr.ReleaseAll(holders[h].get());
          for (int i = 0; i < kFids; ++i) held[i][h] = false;
          break;
        }
      }

      // The table's live view must match the oracle exactly...
      size_t live = 0;
      size_t forever = 0;
      for (int i = 0; i < kFids; ++i) {
        for (int j = 0; j < kHolders; ++j) {
          const bool want = held[i][j] && expiry[i][j] > now;
          ASSERT_EQ(mgr.HasPromise(fids[i], holders[j].get(), now), want)
              << "iter=" << iter << " op=" << op << " fid=" << i << " holder=" << j;
          if (want) live += 1;
          if (want && term[j] == kNeverExpires) {
            forever += 1;
            // A callback promise never lapses.
            ASSERT_TRUE(mgr.HasPromise(fids[i], holders[j].get(), SimTime{1} << 62))
                << "iter=" << iter << " op=" << op << " fid=" << i << " holder=" << j;
          }
        }
      }
      ASSERT_EQ(mgr.promise_count(now), live) << "iter=" << iter << " op=" << op;
      // ...no lease may outlive its term...
      ASSERT_EQ(mgr.promise_count(now + kTerm), forever) << "iter=" << iter << " op=" << op;
      // ...and every count matches.
      ASSERT_EQ(mgr.stats().broken, want_stats.broken) << "iter=" << iter << " op=" << op;
      ASSERT_EQ(mgr.stats().lost, want_stats.lost) << "iter=" << iter << " op=" << op;
      ASSERT_EQ(mgr.stats().waited_out, want_stats.waited_out)
          << "iter=" << iter << " op=" << op;
      ASSERT_EQ(mgr.stats().refused, want_stats.refused) << "iter=" << iter << " op=" << op;
    }
  }
}

// Directed edges the random walk hits only occasionally.

TEST(LeasePropertyTest, BreakDuringEmbargoWaitsOutUnknownPreCrashLeases) {
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Topology topo(net::TopologyConfig{1, 1, 1});
  net::Network network(topo, cost);
  sim::Resource cpu("cpu");

  CallbackManager mgr;
  RecordingReceiver r(topo.WorkstationNode(0, 0));
  ASSERT_GT(mgr.Register({1, 1, 1}, &r, Seconds(1), Seconds(30)), 0);

  // Crash at t=10s: the table is gone, but the t=1s lease is live somewhere
  // until t=31s. A mutation at t=12s must not complete before the embargo
  // ends — the restarted server cannot know which leases it forgot.
  mgr.DropAllPromises();
  mgr.SuspendLeasesUntil(Seconds(10) + Seconds(30));
  const SimTime safe =
      mgr.Break({1, 1, 1}, nullptr, Seconds(12), topo.ServerNode(0, 0), &network, &cpu, cost);
  EXPECT_EQ(safe, Seconds(40));
  EXPECT_EQ(mgr.Register({1, 1, 1}, &r, Seconds(39), Seconds(30)), 0);  // still embargoed
  EXPECT_EQ(mgr.Register({1, 1, 1}, &r, Seconds(40), Seconds(30)), Seconds(70));
}

TEST(LeasePropertyTest, WriterKeepsItsOriginalExpiryAcrossItsOwnBreak) {
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  net::Network network(topo, cost);
  sim::Resource cpu("cpu");

  CallbackManager mgr;
  RecordingReceiver writer(topo.WorkstationNode(0, 0));
  RecordingReceiver other(topo.WorkstationNode(0, 1));
  const Fid f{1, 2, 3};
  ASSERT_EQ(mgr.Register(f, &writer, Seconds(1), Seconds(30)), Seconds(31));
  ASSERT_EQ(mgr.Register(f, &other, Seconds(2), Seconds(30)), Seconds(32));

  const SimTime safe =
      mgr.Break(f, &writer, Seconds(3), topo.ServerNode(0, 0), &network, &cpu, cost);
  EXPECT_EQ(safe, Seconds(3));  // everyone reachable: no wait
  EXPECT_EQ(other.broken.size(), 1u);
  EXPECT_TRUE(writer.broken.empty());
  // The writer's lease survives with its ORIGINAL horizon, not a refresh.
  EXPECT_TRUE(mgr.HasPromise(f, &writer, Seconds(30)));
  EXPECT_FALSE(mgr.HasPromise(f, &writer, Seconds(31)));
  EXPECT_FALSE(mgr.HasPromise(f, &other, Seconds(3)));
}

}  // namespace
}  // namespace itc::vice
