// Unit tests for the lock manager (single-writer/multi-reader advisory
// locks) and the callback manager (invalidate-on-modification promises,
// open-ended or leased).

#include <array>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/vice/callback_manager.h"
#include "src/vice/lock_manager.h"

namespace itc::vice {
namespace {

// --- LockManager ------------------------------------------------------------

class LockTest : public ::testing::Test {
 protected:
  LockManager locks_;
  const Fid f_{1, 2, 3};
  const LockManager::Holder a_{100, 10};
  const LockManager::Holder b_{200, 20};
};

TEST_F(LockTest, MultipleReadersAllowed) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, b_), Status::kOk);
  EXPECT_TRUE(locks_.IsLocked(f_));
  EXPECT_FALSE(locks_.IsExclusive(f_));
}

TEST_F(LockTest, WriterExcludesEveryone) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, b_), Status::kLocked);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, b_), Status::kLocked);
  EXPECT_TRUE(locks_.IsExclusive(f_));
}

TEST_F(LockTest, ReaderBlocksWriter) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, b_), Status::kLocked);
}

TEST_F(LockTest, SoleReaderCanUpgrade) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_TRUE(locks_.IsExclusive(f_));
}

TEST_F(LockTest, UpgradeBlockedByOtherReader) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, b_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kLocked);
}

TEST_F(LockTest, ReacquireIsIdempotent) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
}

TEST_F(LockTest, ReleaseFreesLock) {
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Release(f_, a_), Status::kOk);
  EXPECT_FALSE(locks_.IsLocked(f_));
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, b_), Status::kOk);
}

TEST_F(LockTest, ReleaseWithoutHoldFails) {
  EXPECT_EQ(locks_.Release(f_, a_), Status::kNotLocked);
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Release(f_, b_), Status::kNotLocked);
}

TEST_F(LockTest, ReleaseAllForWorkstationCrash) {
  const Fid g{1, 5, 5};
  EXPECT_EQ(locks_.Acquire(f_, LockMode::kExclusive, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(g, LockMode::kShared, a_), Status::kOk);
  EXPECT_EQ(locks_.Acquire(g, LockMode::kShared, b_), Status::kOk);
  locks_.ReleaseAllFor(a_);
  EXPECT_FALSE(locks_.IsLocked(f_));
  EXPECT_TRUE(locks_.IsLocked(g));  // b still holds
}

// --- CallbackManager -------------------------------------------------------------

class RecordingReceiver : public CallbackReceiver {
 public:
  explicit RecordingReceiver(NodeId node) : node_(node) {}
  void OnCallbackBroken(const Fid& fid) override { broken.push_back(fid); }
  NodeId callback_node() const override { return node_; }
  std::vector<Fid> broken;

 private:
  NodeId node_;
};

class CallbackTest : public ::testing::Test {
 protected:
  CallbackTest()
      : topo_(net::TopologyConfig{1, 1, 4}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_),
        cpu_("cpu"),
        r1_(topo_.WorkstationNode(0, 0)),
        r2_(topo_.WorkstationNode(0, 1)),
        r3_(topo_.WorkstationNode(0, 2)) {}

  // A callback promise: one that never expires.
  void Register(const Fid& fid, CallbackReceiver* who) {
    cbm_.Register(fid, who, 0, kNeverExpires);
  }

  // Notifications the break sent.
  uint64_t Break(const Fid& fid, CallbackReceiver* except) {
    const uint64_t before = cbm_.stats().broken;
    cbm_.Break(fid, except, 0, topo_.ServerNode(0, 0), &network_, &cpu_, cost_);
    return cbm_.stats().broken - before;
  }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  sim::Resource cpu_;
  CallbackManager cbm_;
  RecordingReceiver r1_, r2_, r3_;
  const Fid f_{1, 2, 3};
};

TEST_F(CallbackTest, BreakNotifiesAllHoldersExceptWriter) {
  Register(f_, &r1_);
  Register(f_, &r2_);
  Register(f_, &r3_);
  EXPECT_EQ(Break(f_, &r1_), 2u);
  EXPECT_TRUE(r1_.broken.empty());
  EXPECT_EQ(r2_.broken.size(), 1u);
  EXPECT_EQ(r3_.broken.size(), 1u);
  EXPECT_EQ(cbm_.stats().broken, 2u);
}

TEST_F(CallbackTest, WriterPromiseSurvivesItsOwnBreak) {
  Register(f_, &r1_);
  Register(f_, &r2_);
  Break(f_, &r1_);
  // r1 keeps its promise; r2's is gone.
  EXPECT_TRUE(cbm_.HasPromise(f_, &r1_, 0));
  EXPECT_FALSE(cbm_.HasPromise(f_, &r2_, 0));
  // A second write by r2 must notify r1.
  Register(f_, &r2_);
  EXPECT_EQ(Break(f_, &r2_), 1u);
  EXPECT_EQ(r1_.broken.size(), 1u);
}

TEST_F(CallbackTest, BreakOnUnknownFidIsNoop) {
  EXPECT_EQ(Break(f_, nullptr), 0u);
  EXPECT_EQ(cbm_.stats().break_events, 0u);
}

TEST_F(CallbackTest, UnregisterStopsNotifications) {
  Register(f_, &r1_);
  cbm_.Release(f_, &r1_);
  EXPECT_EQ(Break(f_, nullptr), 0u);
}

TEST_F(CallbackTest, UnregisterAllDropsEveryPromise) {
  const Fid g{1, 9, 9};
  Register(f_, &r1_);
  Register(g, &r1_);
  Register(g, &r2_);
  cbm_.ReleaseAll(&r1_);
  EXPECT_FALSE(cbm_.HasPromise(f_, &r1_, 0));
  EXPECT_FALSE(cbm_.HasPromise(g, &r1_, 0));
  EXPECT_TRUE(cbm_.HasPromise(g, &r2_, 0));
}

TEST_F(CallbackTest, BreakChargesServerCpuAndNetwork) {
  Register(f_, &r1_);
  Register(f_, &r2_);
  const uint64_t msgs_before = network_.stats().messages;
  Break(f_, nullptr);
  EXPECT_EQ(network_.stats().messages - msgs_before, 2u);
  EXPECT_GT(cpu_.busy_time(), 0);
}

TEST_F(CallbackTest, BreakVolumeSweepsWholeVolume) {
  const Fid g{1, 9, 9};
  const Fid other_volume{2, 1, 1};
  Register(f_, &r1_);
  Register(g, &r2_);
  Register(other_volume, &r3_);
  const uint32_t sent =
      cbm_.BreakVolume(1, 0, topo_.ServerNode(0, 0), &network_, &cpu_, cost_);
  EXPECT_EQ(sent, 2u);
  EXPECT_EQ(r1_.broken.size(), 1u);
  EXPECT_EQ(r2_.broken.size(), 1u);
  EXPECT_TRUE(r3_.broken.empty());
  EXPECT_TRUE(cbm_.HasPromise(other_volume, &r3_, 0));
}

TEST_F(CallbackTest, AdministrativeBreaksWaitForNoOne) {
  // r1 holds leases on two files and r2 a callback on one; both are cut off
  // from the server. Neither administrative break waits, and neither leaves
  // r1 a lease it could renew past its term.
  const Fid g{2, 1, 1};
  network_.AddPartition({{r1_.callback_node(), r2_.callback_node()}, 0, Seconds(100)});
  cbm_.Register(f_, &r1_, 0, Seconds(30));
  cbm_.Register(g, &r1_, 0, Seconds(30));
  Register(f_, &r2_);
  const NodeId server = topo_.ServerNode(0, 0);
  EXPECT_EQ(cbm_.BreakFile(f_, Seconds(1), server, &network_, &cpu_, cost_), 0u);
  EXPECT_EQ(cbm_.BreakVolume(g.volume, Seconds(1), server, &network_, &cpu_, cost_), 0u);
  EXPECT_EQ(cbm_.stats().lost, 3u);
  EXPECT_EQ(cbm_.stats().waited_out, 0u);
  EXPECT_EQ(cbm_.promise_count(Seconds(1)), 0u);
  EXPECT_EQ(cbm_.RenewLeases(&r1_, {f_, g}, Seconds(2), Seconds(30)).size(), 2u);
}

// Records, at each notification, the receiver's node and the server CPU
// time charged so far (intra-cluster breaks are delivered in the loop that
// charges them).
struct NotificationLog {
  const sim::Resource* cpu = nullptr;
  std::vector<std::pair<NodeId, SimTime>> entries;
};

class LoggingReceiver : public CallbackReceiver {
 public:
  void OnCallbackBroken(const Fid&) override {
    log->entries.emplace_back(node, log->cpu->busy_time());
  }
  NodeId callback_node() const override { return node; }
  NodeId node = kInvalidNode;
  NotificationLog* log = nullptr;
};

// Holders sit at ascending addresses in descending node order, so address
// order and node order disagree; notifications, and their CPU charges, must
// follow node order.
class BreakOrderTest : public CallbackTest {
 protected:
  BreakOrderTest() {
    log_.cpu = &cpu_;
    for (size_t i = 0; i < receivers_.size(); ++i) {
      const size_t reversed = receivers_.size() - 1 - i;
      receivers_[i].node = topo_.WorkstationNode(0, static_cast<uint32_t>(reversed));
      receivers_[i].log = &log_;
    }
  }

  void ExpectNodeOrder() {
    ASSERT_EQ(log_.entries.size(), receivers_.size());
    for (size_t i = 0; i < log_.entries.size(); ++i) {
      EXPECT_EQ(log_.entries[i].first, topo_.WorkstationNode(0, static_cast<uint32_t>(i)));
      EXPECT_EQ(log_.entries[i].second,
                static_cast<SimTime>(i + 1) * cost_.server_lwp_switch);
    }
  }

  NotificationLog log_;
  std::array<LoggingReceiver, 4> receivers_;
};

TEST_F(BreakOrderTest, CallbackBreaksFollowNodeOrderNotAddressOrder) {
  for (LoggingReceiver& r : receivers_) Register(f_, &r);
  EXPECT_EQ(Break(f_, nullptr), receivers_.size());
  ExpectNodeOrder();
}

TEST_F(BreakOrderTest, VolumeBreaksFollowNodeOrderNotAddressOrder) {
  for (LoggingReceiver& r : receivers_) Register(f_, &r);
  EXPECT_EQ(cbm_.BreakVolume(f_.volume, 0, topo_.ServerNode(0, 0), &network_, &cpu_, cost_),
            receivers_.size());
  ExpectNodeOrder();
}

TEST_F(BreakOrderTest, LeaseBreaksFollowNodeOrderNotAddressOrder) {
  for (LoggingReceiver& r : receivers_) cbm_.Register(f_, &r, 0, Seconds(30));
  cbm_.Break(f_, nullptr, 0, topo_.ServerNode(0, 0), &network_, &cpu_, cost_);
  EXPECT_EQ(cbm_.stats().broken, receivers_.size());
  ExpectNodeOrder();
}

TEST_F(CallbackTest, RegisterIsIdempotentPerHolder) {
  Register(f_, &r1_);
  Register(f_, &r1_);
  EXPECT_EQ(cbm_.promise_count(0), 1u);
  EXPECT_EQ(Break(f_, nullptr), 1u);
}

}  // namespace
}  // namespace itc::vice
