// Cross-workstation consistency semantics, under all three validation
// schemes.
//
// The paper's contract: store-on-close makes changes "immediately visible to
// all other users" (with callbacks or leases, whose breaks notify reachable
// holders synchronously) or visible at next validation (check-on-open);
// fetch vs concurrent store yields "either the old version or the new one,
// but never a partially modified version".

#include <gtest/gtest.h>

#include <algorithm>

#include "src/campus/campus.h"

namespace itc {
namespace {

using campus::Campus;
using campus::CampusConfig;
using Scheme = vice::Validation;

class ConsistencyTest : public ::testing::TestWithParam<Scheme> {
 protected:
  void SetUp() override {
    // Check-on-open rides the prototype configuration it was measured on;
    // the promise-based schemes ride the revised system.
    CampusConfig config = GetParam() == Scheme::kCheckOnOpen
                              ? CampusConfig::Prototype(1, 3)
                              : CampusConfig::Revised(1, 3);
    config.UseValidation(GetParam());
    campus_ = std::make_unique<Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto owner = campus_->AddUserWithHome("owner", "pw", 0);
    ASSERT_TRUE(owner.ok());
    owner_ = *owner;

    // Give everyone write access to a shared scratch directory.
    auto& ws = campus_->workstation(0);
    ASSERT_EQ(ws.LoginWithPassword(owner_.user, "pw"), Status::kOk);
    ASSERT_EQ(ws.MkDir("/vice/usr/owner/shared"), Status::kOk);
    auto acl = ws.venus().GetAcl("/usr/owner/shared");
    ASSERT_TRUE(acl.ok());
    acl->SetPositive(protection::Principal::Group(protection::kAnyUserGroup),
                     protection::kAllRights);
    ASSERT_EQ(ws.venus().SetAcl("/usr/owner/shared", *acl), Status::kOk);
    ws.Logout();

    for (int i = 0; i < 3; ++i) {
      auto u = campus_->protection().CreateUser("user" + std::to_string(i), "pw");
      ASSERT_TRUE(u.ok());
      users_[i] = *u;
      ASSERT_EQ(campus_->workstation(i).LoginWithPassword(users_[i], "pw"), Status::kOk);
    }
  }

  virtue::Workstation& ws(int i) { return campus_->workstation(i); }

  std::unique_ptr<Campus> campus_;
  Campus::UserHome owner_;
  UserId users_[3] = {};
  const std::string file_ = "/vice/usr/owner/shared/doc";
};

TEST_P(ConsistencyTest, SequentialWriteReadChain) {
  // w0 writes v1; w1 reads v1, writes v2; w2 reads v2.
  ASSERT_EQ(ws(0).WriteWholeFile(file_, ToBytes("v1")), Status::kOk);
  auto r1 = ws(1).ReadWholeFile(file_);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(ToString(*r1), "v1");
  ASSERT_EQ(ws(1).WriteWholeFile(file_, ToBytes("v2")), Status::kOk);
  auto r2 = ws(2).ReadWholeFile(file_);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ToString(*r2), "v2");
  // And the original writer sees the update on its next open.
  auto r0 = ws(0).ReadWholeFile(file_);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(ToString(*r0), "v2");
}

TEST_P(ConsistencyTest, WholeFileStoreIsAtomic) {
  // Open-for-write at w0, write half the new content, DON'T close. Readers
  // must keep seeing the old version — partial writes never escape.
  ASSERT_EQ(ws(0).WriteWholeFile(file_, ToBytes("old-old-old")), Status::kOk);
  ASSERT_TRUE(ws(1).ReadWholeFile(file_).ok());

  auto fd = ws(0).Open(file_, virtue::kWrite | virtue::kTruncate);
  ASSERT_TRUE(fd.ok());
  ASSERT_EQ(ws(0).Write(*fd, ToBytes("NEW")), Status::kOk);

  auto mid = ws(1).ReadWholeFile(file_);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(ToString(*mid), "old-old-old");  // old version, complete

  ASSERT_EQ(ws(0).Close(*fd), Status::kOk);  // store happens here
  auto after = ws(1).ReadWholeFile(file_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ToString(*after), "NEW");  // new version, complete
}

TEST_P(ConsistencyTest, ConcurrentWritersLastCloseWins) {
  ASSERT_EQ(ws(0).WriteWholeFile(file_, ToBytes("base")), Status::kOk);

  auto fd1 = ws(1).Open(file_, virtue::kWrite | virtue::kTruncate);
  auto fd2 = ws(2).Open(file_, virtue::kWrite | virtue::kTruncate);
  ASSERT_TRUE(fd1.ok() && fd2.ok());
  ASSERT_EQ(ws(1).Write(*fd1, ToBytes("from-w1")), Status::kOk);
  ASSERT_EQ(ws(2).Write(*fd2, ToBytes("from-w2")), Status::kOk);
  ASSERT_EQ(ws(1).Close(*fd1), Status::kOk);
  ASSERT_EQ(ws(2).Close(*fd2), Status::kOk);

  auto final = ws(0).ReadWholeFile(file_);
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(ToString(*final), "from-w2");  // whole-file, last close wins
}

TEST_P(ConsistencyTest, DeleteVisibleEverywhere) {
  ASSERT_EQ(ws(0).WriteWholeFile(file_, ToBytes("x")), Status::kOk);
  ASSERT_TRUE(ws(1).ReadWholeFile(file_).ok());  // cached at w1
  ASSERT_EQ(ws(0).Unlink(file_), Status::kOk);
  EXPECT_EQ(ws(1).ReadWholeFile(file_).status(), Status::kNotFound);
  EXPECT_EQ(ws(2).ReadWholeFile(file_).status(), Status::kNotFound);
}

TEST_P(ConsistencyTest, DirectoryChangesPropagate) {
  ASSERT_EQ(ws(0).WriteWholeFile("/vice/usr/owner/shared/a", ToBytes("1")), Status::kOk);
  auto names1 = ws(1).ReadDir("/vice/usr/owner/shared");
  ASSERT_TRUE(names1.ok());
  const size_t before = names1->size();
  ASSERT_EQ(ws(2).WriteWholeFile("/vice/usr/owner/shared/b", ToBytes("2")), Status::kOk);
  auto names2 = ws(1).ReadDir("/vice/usr/owner/shared");
  ASSERT_TRUE(names2.ok());
  EXPECT_EQ(names2->size(), before + 1);
}

TEST_P(ConsistencyTest, StatSeesFreshLength) {
  ASSERT_EQ(ws(0).WriteWholeFile(file_, Bytes(100, 'a')), Status::kOk);
  ASSERT_TRUE(ws(1).Stat(file_).ok());
  ASSERT_EQ(ws(0).WriteWholeFile(file_, Bytes(5000, 'b')), Status::kOk);
  auto st = ws(1).Stat(file_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 5000u);
}

// Administrative changes bypass the file server's handlers, so the volume
// registry breaks the promises on what they touch itself. Those breaks must
// reach lease holders as well as callback holders: within its term a lease
// holder otherwise keeps trusting the old copy.
TEST_P(ConsistencyTest, DirectPopulateReplacesCachedCopy) {
  ASSERT_EQ(ws(0).WriteWholeFile(file_, ToBytes("v1")), Status::kOk);
  auto before = ws(1).ReadWholeFile(file_);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(ToString(*before), "v1");  // cached at w1
  ASSERT_EQ(campus_->PopulateDirect(owner_.volume, "/shared/doc", ToBytes("v2")),
            Status::kOk);
  auto after = ws(1).ReadWholeFile(file_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ToString(*after), "v2");
}

TEST_P(ConsistencyTest, NewHomeAppearsInCachedUsrListing) {
  auto before = ws(1).ReadDir("/vice/usr");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(std::count(before->begin(), before->end(), "newcomer"), 0);  // cached at w1
  ASSERT_TRUE(campus_->AddUserWithHome("newcomer", "pw", 0).ok());
  auto after = ws(1).ReadDir("/vice/usr");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(std::count(after->begin(), after->end(), "newcomer"), 1);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ConsistencyTest,
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
