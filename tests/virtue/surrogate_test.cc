// Tests for the surrogate server (Section 3.3): a low-function PC client
// reaching Vice through a full Virtue workstation.

#include "src/virtue/surrogate.h"

#include <gtest/gtest.h>

#include "src/campus/campus.h"
#include "src/rpc/wire.h"

namespace itc::virtue {
namespace {

using campus::Campus;
using campus::CampusConfig;

class SurrogateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    campus_ = std::make_unique<Campus>(CampusConfig::Revised(1, 2));
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("pcuser", "pw", 0);
    ASSERT_TRUE(home.ok());
    user_ = home->user;

    // Workstation 0 hosts the surrogate and is attached to Vice.
    host_ = &campus_->workstation(0);
    ASSERT_EQ(host_->LoginWithPassword(user_, "pw"), Status::kOk);

    key_ = crypto::DeriveKeyFromPassword("pw", "itc.cmu.edu");
    surrogate_ = std::make_unique<SurrogateServer>(
        host_, &campus_->network(), campus_->config().cost, campus_->config().rpc,
        [this](UserId u) -> std::optional<crypto::Key> {
          if (u == user_) return key_;
          return std::nullopt;
        },
        999);

    // The "PC" borrows workstation 1's node id (same cluster, cheap link).
    pc_ = std::make_unique<PcClient>(campus_->topology().WorkstationNode(0, 1),
                                     &pc_clock_, surrogate_.get(), &campus_->network(),
                                     campus_->config().cost);
    ASSERT_EQ(pc_->Connect(user_, key_, 7), Status::kOk);
  }

  std::unique_ptr<Campus> campus_;
  Workstation* host_ = nullptr;
  UserId user_ = kAnonymousUser;
  crypto::Key key_;
  std::unique_ptr<SurrogateServer> surrogate_;
  sim::Clock pc_clock_;
  std::unique_ptr<PcClient> pc_;
};

TEST_F(SurrogateTest, PcReachesViceTransparently) {
  // The PC writes into the shared name space through the surrogate.
  ASSERT_EQ(pc_->WriteFile("/vice/usr/pcuser/memo.txt", ToBytes("from the PC")),
            Status::kOk);
  // A full workstation elsewhere sees it directly.
  auto& other = campus_->workstation(1);
  ASSERT_EQ(other.LoginWithPassword(user_, "pw"), Status::kOk);
  auto data = other.ReadWholeFile("/vice/usr/pcuser/memo.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "from the PC");
}

TEST_F(SurrogateTest, PcReadsThroughHostCache) {
  ASSERT_EQ(host_->WriteWholeFile("/vice/usr/pcuser/doc", ToBytes("cached at host")),
            Status::kOk);
  // Warm read revalidates the parent directory the create invalidated.
  ASSERT_TRUE(host_->ReadWholeFile("/vice/usr/pcuser/doc").ok());
  const uint64_t host_fetches = host_->venus().stats().fetches;
  auto data = pc_->ReadFile("/vice/usr/pcuser/doc");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "cached at host");
  // Served from the host's whole-file cache: no new fetch from Vice.
  EXPECT_EQ(host_->venus().stats().fetches, host_fetches);
}

TEST_F(SurrogateTest, StatAndDirListing) {
  ASSERT_EQ(pc_->WriteFile("/vice/usr/pcuser/a", Bytes(1234, 'x')), Status::kOk);
  auto st = pc_->Stat("/vice/usr/pcuser/a");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 1234u);
  EXPECT_TRUE(st->shared);
  EXPECT_FALSE(st->is_directory);

  ASSERT_EQ(pc_->MkDir("/vice/usr/pcuser/sub"), Status::kOk);
  auto names = pc_->ReadDir("/vice/usr/pcuser");
  ASSERT_TRUE(names.ok());
  EXPECT_NE(std::find(names->begin(), names->end(), "a"), names->end());
  EXPECT_NE(std::find(names->begin(), names->end(), "sub"), names->end());

  ASSERT_EQ(pc_->Unlink("/vice/usr/pcuser/a"), Status::kOk);
  EXPECT_EQ(pc_->ReadFile("/vice/usr/pcuser/a").status(), Status::kNotFound);
}

TEST_F(SurrogateTest, PcSeesHostLocalFilesToo) {
  ASSERT_EQ(host_->WriteWholeFile("/tmp/host-local", ToBytes("local data")), Status::kOk);
  auto data = pc_->ReadFile("/tmp/host-local");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "local data");
}

TEST_F(SurrogateTest, DifferentUserCannotBorrowHostSession) {
  // A second user with valid credentials CAN authenticate to the surrogate,
  // but every operation is refused: the surrogate executes under the host
  // session's identity and must not launder another user's requests
  // through it.
  auto other = campus_->protection().CreateUser("other", "pw2");
  ASSERT_TRUE(other.ok());
  const auto other_key = crypto::DeriveKeyFromPassword("pw2", "itc.cmu.edu");

  // Extend the surrogate's key lookup world: rebuild with both users known.
  auto surrogate = std::make_unique<SurrogateServer>(
      host_, &campus_->network(), campus_->config().cost, campus_->config().rpc,
      [&](UserId u) -> std::optional<crypto::Key> {
        if (u == user_) return key_;
        if (u == *other) return other_key;
        return std::nullopt;
      },
      1234);

  sim::Clock clock;
  PcClient impostor(campus_->topology().WorkstationNode(0, 1), &clock, surrogate.get(),
                    &campus_->network(), campus_->config().cost);
  ASSERT_EQ(impostor.Connect(*other, other_key, 9), Status::kOk);  // auth is fine...
  EXPECT_EQ(impostor.WriteFile("/vice/usr/pcuser/stolen", ToBytes("x")),
            Status::kPermissionDenied);  // ...acting as the host is not
  EXPECT_EQ(impostor.ReadFile("/vice/usr/pcuser/memo.txt").status(),
            Status::kPermissionDenied);

  // The rightful owner still works through the same surrogate.
  PcClient owner(campus_->topology().WorkstationNode(0, 1), &clock, surrogate.get(),
                 &campus_->network(), campus_->config().cost);
  ASSERT_EQ(owner.Connect(user_, key_, 10), Status::kOk);
  EXPECT_EQ(owner.WriteFile("/vice/usr/pcuser/mine", ToBytes("ok")), Status::kOk);
}

TEST_F(SurrogateTest, UnknownPcUserRefused) {
  PcClient stranger(campus_->topology().WorkstationNode(0, 1), &pc_clock_,
                    surrogate_.get(), &campus_->network(), campus_->config().cost);
  EXPECT_EQ(stranger.Connect(424242, key_, 8), Status::kAuthFailed);
}

TEST_F(SurrogateTest, ProtectionStillEnforcedByVice) {
  // The surrogate runs with the host's identity; Vice still checks rights.
  // pcuser has no write access to the root volume's /unix tree.
  EXPECT_EQ(pc_->WriteFile("/vice/unix/hack", ToBytes("nope")),
            Status::kPermissionDenied);
}

// Answers every call OK with a directory count of 0xffffffff and no names.
class HostileCountService : public rpc::Service {
 public:
  Result<Bytes> Dispatch(rpc::CallContext&, uint32_t, const Bytes&) override {
    rpc::Writer w;
    w.PutStatus(Status::kOk);
    w.PutU32(0xffffffffu);
    return w.Take();
  }
};

TEST_F(SurrogateTest, ReadDirRefusesACountTheReplyCannotHold) {
  // Sized by the count alone, the name vector would ask for ~137 GB.
  HostileCountService hostile;
  surrogate_->endpoint().set_service(&hostile);
  EXPECT_EQ(pc_->ReadDir("/vice/usr").status(), Status::kProtocolError);
}

}  // namespace
}  // namespace itc::virtue
