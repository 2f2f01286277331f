// End-to-end crash-recovery tests: a custodian dies at every crash point of
// every mutating op class while a campus is using it, and after Restart the
// community converges — no torn state, no stale data served off a dead
// callback promise, salvage always clean (Section 3.5: an operation either
// happened entirely or not at all, and the client can tell which by whether
// it saw the reply).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/campus/campus.h"
#include "src/rpc/fault_injector.h"

namespace itc {
namespace {

using campus::Campus;
using campus::CampusConfig;
using rpc::CrashPoint;
using Scheme = vice::Validation;

class CrashRecoveryTest : public ::testing::TestWithParam<Scheme> {
 protected:
  void SetUp() override {
    CampusConfig config = CampusConfig::Revised(2, 2);
    config.UseValidation(GetParam());
    campus_ = std::make_unique<Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto a = campus_->AddUserWithHome("a", "pw", /*custodian=*/0);
    auto b = campus_->AddUserWithHome("b", "pw", /*custodian=*/1);
    ASSERT_TRUE(a.ok() && b.ok());
    a_ = *a;
    b_ = *b;
  }

  // Crash server 0 via an armed crash point, restart it, and require a clean
  // recovery.
  void RestartServerZero() {
    auto report = campus_->RestartServer(0, campus_->workstation(0).clock().now());
    EXPECT_TRUE(report.clean()) << "replay_failures=" << report.replay_failures;
    EXPECT_TRUE(report.salvage.clean());
  }

  std::unique_ptr<Campus> campus_;
  Campus::UserHome a_, b_;
};

// One (crash point × op class) cell: arm, attempt the op (it must fail — the
// machine died under it), restart, then check the op is either fully present
// (kBeforeReply: it committed, only the reply was lost) or fully absent.
TEST_P(CrashRecoveryTest, CrashPointMatrixLeavesNoTornState) {
  auto& ws = campus_->workstation(0);
  auto& verifier = campus_->workstation(1);
  ASSERT_EQ(ws.LoginWithPassword(a_.user, "pw"), Status::kOk);
  ASSERT_EQ(verifier.LoginWithPassword(a_.user, "pw"), Status::kOk);

  const std::string dir = "/vice/usr/a";
  ASSERT_EQ(ws.WriteWholeFile(dir + "/seed", ToBytes("old")), Status::kOk);
  ASSERT_EQ(ws.WriteWholeFile(dir + "/victim", ToBytes("bye")), Status::kOk);
  ASSERT_EQ(ws.WriteWholeFile(dir + "/movable", ToBytes("mv")), Status::kOk);

  struct Cell {
    const char* name;
    std::function<Status()> op;
    std::function<void(bool applied)> check;
  };

  int round = 0;
  for (CrashPoint point :
       {CrashPoint::kBeforeLogAppend, CrashPoint::kAfterLogAppend, CrashPoint::kBeforeReply}) {
    const bool applied = point == CrashPoint::kBeforeReply;
    const std::string tag = std::to_string(round++);

    std::vector<Cell> cells;
    cells.push_back({"store", [&] { return ws.WriteWholeFile(dir + "/seed", ToBytes("new" + tag)); },
                     [&, tag](bool ok) {
                       auto got = verifier.ReadWholeFile(dir + "/seed");
                       ASSERT_TRUE(got.ok());
                       EXPECT_EQ(ToString(*got), ok ? "new" + tag : "old");
                       // Re-seed for the next round.
                       ASSERT_EQ(ws.WriteWholeFile(dir + "/seed", ToBytes("old")), Status::kOk);
                     }});
    cells.push_back({"create", [&] { return ws.WriteWholeFile(dir + "/c" + tag, ToBytes("x")); },
                     [&, tag](bool ok) {
                       EXPECT_EQ(verifier.Stat(dir + "/c" + tag).ok(), ok);
                     }});
    cells.push_back({"mkdir", [&] { return ws.MkDir(dir + "/d" + tag); },
                     [&, tag](bool ok) {
                       EXPECT_EQ(verifier.Stat(dir + "/d" + tag).ok(), ok);
                     }});
    cells.push_back({"remove", [&] { return ws.Unlink(dir + "/victim"); },
                     [&](bool ok) {
                       EXPECT_EQ(verifier.Stat(dir + "/victim").ok(), !ok);
                       if (ok) {
                         ASSERT_EQ(ws.WriteWholeFile(dir + "/victim", ToBytes("bye")),
                                   Status::kOk);
                       }
                     }});
    cells.push_back({"rename", [&] { return ws.Rename(dir + "/movable", dir + "/moved" + tag); },
                     [&, tag](bool ok) {
                       EXPECT_EQ(verifier.Stat(dir + "/movable").ok(), !ok);
                       EXPECT_EQ(verifier.Stat(dir + "/moved" + tag).ok(), ok);
                       if (ok) {
                         ASSERT_EQ(ws.Rename(dir + "/moved" + tag, dir + "/movable"),
                                   Status::kOk);
                       }
                     }});

    for (auto& cell : cells) {
      SCOPED_TRACE(std::string(cell.name) + " @point " + tag);
      campus_->server(0).endpoint().fault().ArmCrash(point);
      EXPECT_NE(cell.op(), Status::kOk);  // the machine died under the call
      EXPECT_TRUE(campus_->server(0).crashed());
      RestartServerZero();
      // The verifier must see server truth, not its own cached past.
      verifier.venus().FlushCache();
      cell.check(applied);
    }
  }
}

TEST_P(CrashRecoveryTest, MidStormCrashesConvergeAtEveryPoint) {
  auto& ws_a = campus_->workstation(0);
  auto& ws_b = campus_->workstation(2);
  ASSERT_EQ(ws_a.LoginWithPassword(a_.user, "pw"), Status::kOk);
  ASSERT_EQ(ws_b.LoginWithPassword(b_.user, "pw"), Status::kOk);

  const CrashPoint points[] = {CrashPoint::kBeforeLogAppend, CrashPoint::kAfterLogAppend,
                               CrashPoint::kBeforeReply};
  std::map<std::string, std::string> acked;  // writes the client saw succeed

  for (int i = 0; i < 24; ++i) {
    const std::string fa = "/vice/usr/a/f" + std::to_string(i);
    const std::string fb = "/vice/usr/b/f" + std::to_string(i);
    // Every 8th iteration the custodian of a's volume dies mid-storm, at a
    // rotating crash point.
    if (i % 8 == 4) campus_->server(0).endpoint().fault().ArmCrash(points[(i / 8) % 3]);

    if (ws_a.WriteWholeFile(fa, ToBytes("A" + std::to_string(i))) == Status::kOk) {
      acked[fa] = "A" + std::to_string(i);
    }
    if (campus_->server(0).crashed()) RestartServerZero();
    // Server 1 is never crashed: b's traffic must be entirely untouched.
    ASSERT_EQ(ws_b.WriteWholeFile(fb, ToBytes("B" + std::to_string(i))), Status::kOk);
    acked[fb] = "B" + std::to_string(i);
  }

  // Convergence: every acknowledged write is durable and readable by a fresh
  // cache, on both volumes.
  ws_a.venus().FlushCache();
  ws_b.venus().FlushCache();
  for (const auto& [path, want] : acked) {
    auto ra = ws_a.ReadWholeFile(path);
    ASSERT_TRUE(ra.ok()) << path;
    EXPECT_EQ(ToString(*ra), want) << path;
  }
  // And a final crash/restart cycle finds nothing to salvage.
  campus_->CrashServer(0);
  RestartServerZero();
}

TEST_P(CrashRecoveryTest, SuspectPromisesServeNoStaleData) {
  // Two workstations in cluster 0, both user a. Under every scheme, a
  // restart the client detects (broken connection) must drop whatever trust
  // the scheme kept — callback promise or lease alike.
  auto& writer = campus_->workstation(0);
  auto& reader = campus_->workstation(1);
  ASSERT_EQ(writer.LoginWithPassword(a_.user, "pw"), Status::kOk);
  ASSERT_EQ(reader.LoginWithPassword(a_.user, "pw"), Status::kOk);

  const std::string f = "/vice/usr/a/shared";
  ASSERT_EQ(writer.WriteWholeFile(f, ToBytes("v1")), Status::kOk);
  ASSERT_EQ(ToString(*reader.ReadWholeFile(f)), "v1");  // cached under a promise

  // The custodian dies and comes back: the reader's callback promise died
  // with it, silently.
  campus_->CrashServer(0);
  RestartServerZero();

  // A new version appears. The server holds no promise for the reader, so
  // no break is delivered to it.
  ASSERT_EQ(writer.WriteWholeFile(f, ToBytes("v2")), Status::kOk);

  // The reader touches the server for something unrelated — a scratch-file
  // store must contact the custodian no matter what is cached. The stale
  // pre-crash connection comes back CONNECTION_BROKEN; the re-handshake
  // retry succeeds, and the restart marks every cached entry from that
  // server suspect...
  ASSERT_EQ(reader.WriteWholeFile("/vice/usr/a/scratch", ToBytes("s")), Status::kOk);
  EXPECT_GE(reader.venus().stats().suspect_marks, 1u);

  // ...so the next open revalidates instead of trusting the dead promise,
  // and serves the new contents.
  auto got = reader.ReadWholeFile(f);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v2");
}

TEST_P(CrashRecoveryTest, EpochProbeDetectsRestartAcrossSessions) {
  auto& ws = campus_->workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(a_.user, "pw"), Status::kOk);
  ASSERT_EQ(ws.WriteWholeFile("/vice/usr/a/f", ToBytes("x")), Status::kOk);
  const uint64_t marks_before = ws.venus().stats().suspect_marks;
  ws.Logout();

  // The server restarts while this workstation is logged out — no connection
  // existed to break, so only the epoch can carry the news.
  campus_->CrashServer(0);
  RestartServerZero();

  ASSERT_EQ(ws.LoginWithPassword(a_.user, "pw"), Status::kOk);
  if (GetParam() == Scheme::kCallbacks) {
    // Only open-ended promises need the probe.
    EXPECT_GT(ws.venus().stats().suspect_marks, marks_before);
  } else {
    // Check-on-open never trusts; leases lapse on their own — neither pays
    // the probe round trip on every fresh connection.
    EXPECT_EQ(ws.venus().stats().suspect_marks, marks_before);
  }
}

TEST_P(CrashRecoveryTest, RecoveryReportAccountsForRestoredState) {
  auto& ws = campus_->workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(a_.user, "pw"), Status::kOk);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(ws.WriteWholeFile("/vice/usr/a/f" + std::to_string(i),
                                ToBytes(std::string(512, 'x'))),
              Status::kOk);
  }

  campus_->CrashServer(0);
  auto report = campus_->RestartServer(0, ws.clock().now());
  EXPECT_TRUE(report.clean());
  // Server 0 hosts at least the root volume and a's home volume.
  EXPECT_GE(report.volumes_restored, 2u);
  EXPECT_GT(report.recovery_time, 0);
  EXPECT_EQ(campus_->server(0).restart_epoch(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CrashRecoveryTest,
                         ::testing::Values(Scheme::kCheckOnOpen, Scheme::kCallbacks,
                                           Scheme::kLeases),
                         [](const ::testing::TestParamInfo<Scheme>& p) {
                           switch (p.param) {
                             case Scheme::kCheckOnOpen: return "CheckOnOpen";
                             case Scheme::kCallbacks: return "Callbacks";
                             case Scheme::kLeases: return "Leases";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace itc
