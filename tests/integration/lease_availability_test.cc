// Availability scenarios that separate the three validation schemes: a link
// partition that heals after a fixed interval, and a server restart.
//
//   * check-on-open: unavailable during the partition (every open needs the
//     custodian), fresh immediately after it heals;
//   * callbacks: available throughout — but the break the partition ate is
//     gone forever, so the holder serves stale data even after the heal;
//   * leases: stale reads bounded by the lease term, then unavailable until
//     the heal, then fresh — and after a server restart the scheme recovers
//     within one term with no re-establishment traffic at all.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/campus/campus.h"

namespace itc {
namespace {

using campus::Campus;
using campus::CampusConfig;
using Scheme = vice::Validation;

class LeaseAvailabilityTest : public ::testing::Test {
 protected:
  void MakeCampus(Scheme scheme) {
    CampusConfig config = CampusConfig::Revised(2, 2);
    config.UseValidation(scheme);
    campus_ = std::make_unique<Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto a = campus_->AddUserWithHome("a", "pw", /*custodian=*/0);
    ASSERT_TRUE(a.ok());
    a_ = *a;
    // Writer shares the custodian's cluster; the reader watches from the
    // other cluster so only IT can be cut off.
    ASSERT_EQ(writer().LoginWithPassword(a_.user, "pw"), Status::kOk);
    ASSERT_EQ(reader().LoginWithPassword(a_.user, "pw"), Status::kOk);
    ASSERT_EQ(writer().WriteWholeFile(kFile, ToBytes("v1")), Status::kOk);
    auto r = reader().ReadWholeFile(kFile);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(ToString(*r), "v1");  // cached (and leased / promised)
  }

  // Cuts the reader off for [P1, P2) and returns (P1, P2): a window opening
  // one second after both clocks and long enough to outlive any lease.
  std::pair<SimTime, SimTime> PartitionReader() {
    const SimTime p1 = std::max(writer().clock().now(), reader().clock().now()) + Seconds(1);
    const SimTime p2 = p1 + Seconds(120);
    campus_->PartitionWorkstation(2, p1, p2);
    return {p1, p2};
  }

  virtue::Workstation& writer() { return campus_->workstation(0); }
  virtue::Workstation& reader() { return campus_->workstation(2); }

  std::unique_ptr<Campus> campus_;
  Campus::UserHome a_;
  static constexpr const char* kFile = "/vice/usr/a/shared";
};

TEST_F(LeaseAvailabilityTest, LeasesBoundStalenessUnderPartition) {
  MakeCampus(Scheme::kLeases);
  const auto [p1, p2] = PartitionReader();

  // The write cannot be acknowledged while an unreachable holder's lease is
  // live: the server waits it out (never past the holder's expiry).
  writer().clock().AdvanceTo(p1 + Seconds(1));
  ASSERT_EQ(writer().WriteWholeFile(kFile, ToBytes("v2")), Status::kOk);
  EXPECT_GE(writer().clock().now(), Seconds(30));  // sat out the reader's lease
  EXPECT_GE(campus_->server(0).callbacks().stats().waited_out, 1u);
  EXPECT_GE(campus_->network().stats().partition_drops, 1u);

  // Within its lease the partitioned reader still serves the cached copy —
  // stale, but with zero communication and a hard bound on the staleness.
  reader().clock().AdvanceTo(p1 + Seconds(1));
  const uint64_t validations = reader().venus().stats().validations;
  auto during = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(ToString(*during), "v1");
  EXPECT_EQ(reader().venus().stats().validations, validations);

  // Past the lease term the trust horizon is gone: check-on-open fallback,
  // which the partition makes unavailable.
  reader().clock().AdvanceTo(p1 + Seconds(35));
  EXPECT_EQ(reader().ReadWholeFile(kFile).status(), Status::kUnavailable);

  // The heal is just the passage of time; the first open after it is fresh.
  reader().clock().AdvanceTo(p2 + Seconds(1));
  auto after = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ToString(*after), "v2");
}

TEST_F(LeaseAvailabilityTest, CallbacksServeStaleDataForeverAfterHealedPartition) {
  MakeCampus(Scheme::kCallbacks);
  const auto [p1, p2] = PartitionReader();

  // The break is lost to the partition and the write completes anyway.
  writer().clock().AdvanceTo(p1 + Seconds(1));
  ASSERT_EQ(writer().WriteWholeFile(kFile, ToBytes("v2")), Status::kOk);
  EXPECT_GE(campus_->server(0).callbacks().stats().lost, 1u);

  // The reader trusts its open-ended promise during the partition...
  reader().clock().AdvanceTo(p1 + Seconds(35));
  auto during = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(ToString(*during), "v1");

  // ...and — the hole leases close — KEEPS trusting it after the heal: the
  // staleness window is unbounded.
  reader().clock().AdvanceTo(p2 + Seconds(60));
  auto after = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ToString(*after), "v1");
}

TEST_F(LeaseAvailabilityTest, CheckOnOpenIsUnavailableUnderPartitionButFreshAfter) {
  MakeCampus(Scheme::kCheckOnOpen);
  const auto [p1, p2] = PartitionReader();

  writer().clock().AdvanceTo(p1 + Seconds(1));
  ASSERT_EQ(writer().WriteWholeFile(kFile, ToBytes("v2")), Status::kOk);

  reader().clock().AdvanceTo(p1 + Seconds(2));
  EXPECT_EQ(reader().ReadWholeFile(kFile).status(), Status::kUnavailable);

  reader().clock().AdvanceTo(p2 + Seconds(1));
  auto after = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ToString(*after), "v2");
}

TEST_F(LeaseAvailabilityTest, RestartEmbargoRecoversWithinOneTermWithoutReestablishment) {
  MakeCampus(Scheme::kLeases);
  const SimTime term = vice::kLeaseTerm;

  campus_->CrashServer(0);
  const SimTime restart_at = writer().clock().now();
  auto report = campus_->RestartServer(0, restart_at);
  ASSERT_TRUE(report.clean());

  // First contact after the restart rides the broken-connection retry; the
  // proven restart drops every lease the reader held from that server. The
  // news must arrive on a NON-mutating call — a store would itself be
  // delayed to the embargo's end, skipping the window under test.
  ASSERT_TRUE(reader().venus().GetAcl("/usr/a").ok());
  EXPECT_GE(reader().venus().stats().suspect_marks, 1u);
  ASSERT_LT(reader().clock().now(), restart_at + term);  // still inside it

  // During the embargo the file stays AVAILABLE — grants are refused, so
  // every open falls back to per-open validation (no lease, no trust).
  const uint64_t grants_before = reader().venus().stats().lease_grants;
  auto r1 = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(ToString(*r1), "v1");
  const uint64_t v1 = reader().venus().stats().validations;
  auto r2 = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(reader().venus().stats().validations, v1);  // revalidated, not trusted
  EXPECT_EQ(reader().venus().stats().lease_grants, grants_before);
  EXPECT_GE(campus_->server(0).callbacks().stats().refused, 1u);

  // A mutation inside the embargo waits out every lease the dead server
  // might have forgotten — the write's completion lands past restart + term.
  ASSERT_EQ(writer().WriteWholeFile(kFile, ToBytes("v2")), Status::kOk);
  EXPECT_GE(writer().clock().now(), restart_at + term);

  // One term after the restart, grants resume by themselves: no
  // re-establishment protocol, no recovery storm — just the next open.
  reader().clock().AdvanceTo(restart_at + term + Seconds(1));
  auto r3 = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(ToString(*r3), "v2");
  EXPECT_GT(reader().venus().stats().lease_grants, grants_before);
  const uint64_t v2 = reader().venus().stats().validations;
  auto r4 = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(ToString(*r4), "v2");
  EXPECT_EQ(reader().venus().stats().validations, v2);  // leased again: zero RPCs
}

// Pinning test (regression): marking a server suspect must drop that
// server's LEASES together with its callback promises. If only `valid` were
// cleared — or only non-dirty entries touched — a live lease_expiry would
// let Trusted() serve pre-crash data after a proven restart.
TEST_F(LeaseAvailabilityTest, MarkingServerSuspectDropsItsLeasesAtomically) {
  MakeCampus(Scheme::kLeases);

  campus_->CrashServer(0);
  ASSERT_TRUE(campus_->RestartServer(0, writer().clock().now()).clean());

  // Unrelated NON-mutating traffic delivers the restart news (broken
  // connection); the reader's clock stays well inside the pre-crash lease
  // horizon, so natural expiry cannot mask a missing invalidation.
  ASSERT_TRUE(reader().venus().GetAcl("/usr/a").ok());
  ASSERT_GE(reader().venus().stats().suspect_marks, 1u);
  ASSERT_LT(reader().clock().now(), Seconds(30));

  // The very next open of the leased file must pay a validation round trip;
  // trusting the pre-crash lease horizon here is the bug this test pins.
  const uint64_t validations = reader().venus().stats().validations;
  auto got = reader().ReadWholeFile(kFile);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v1");
  EXPECT_GT(reader().venus().stats().validations, validations);
}

}  // namespace
}  // namespace itc
