// Robustness fuzzing of the Vice dispatch surface: arbitrary bytes from an
// authenticated (but possibly malicious or broken) workstation must never
// crash the server or corrupt volume state — only produce clean error
// replies. "Workstations are not trustworthy."

#include <gtest/gtest.h>

#include "src/campus/campus.h"
#include "src/common/rng.h"
#include "src/protection/protection_rpc.h"
#include "src/rpc/wire.h"

namespace itc {
namespace {

using campus::Campus;
using campus::CampusConfig;

class FuzzDispatchTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    campus_ = std::make_unique<Campus>(CampusConfig::Revised(1, 1));
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("fuzzer", "pw", 0);
    ASSERT_TRUE(home.ok());
    home_ = *home;
    ws_ = &campus_->workstation(0);
    ASSERT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kOk);
    ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/fuzzer/canary", ToBytes("alive")),
              Status::kOk);
  }

  // A raw authenticated connection, bypassing Venus entirely.
  std::unique_ptr<rpc::ClientConnection> RawConnection() {
    auto key = crypto::DeriveKeyFromPassword("pw", "itc.cmu.edu");
    auto conn = rpc::ClientConnection::Connect(
        campus_->topology().WorkstationNode(0, 0), home_.user, key,
        &campus_->server(0).endpoint(), &campus_->network(), campus_->config().cost,
        &clock_, 555);
    return conn.ok() ? std::move(*conn) : nullptr;
  }

  std::unique_ptr<Campus> campus_;
  Campus::UserHome home_;
  virtue::Workstation* ws_ = nullptr;
  sim::Clock clock_;
};

TEST_P(FuzzDispatchTest, RandomBytesNeverCrashOrCorrupt) {
  auto conn = RawConnection();
  ASSERT_NE(conn, nullptr);
  Rng rng(GetParam() * 2654435761u);

  for (int i = 0; i < 400; ++i) {
    // Random procedure (valid and invalid ranges) with random payload.
    const uint32_t proc = static_cast<uint32_t>(rng.Below(80));
    Bytes payload(rng.Below(200));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextU64());
    // The call itself may report a protocol error; it must never abort.
    (void)conn->Call(proc, payload);
  }

  // The server is still sane: volumes salvage clean and real traffic works.
  auto report = campus_->registry().SalvageVolume(home_.volume);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  auto canary = ws_->ReadWholeFile("/vice/usr/fuzzer/canary");
  ASSERT_TRUE(canary.ok());
  EXPECT_EQ(ToString(*canary), "alive");
}

TEST_P(FuzzDispatchTest, StructurallyPlausibleGarbage) {
  // Sharper fuzz: wellformed-looking fids and strings with hostile values.
  auto conn = RawConnection();
  ASSERT_NE(conn, nullptr);
  Rng rng(GetParam() ^ 0xfeedface);

  const uint32_t procs[] = {10, 11, 12, 13, 14, 20, 21, 22, 23, 24, 25, 26,
                            27, 30, 31, 40, 41, 50, 60, 3, 4};
  for (int i = 0; i < 300; ++i) {
    rpc::Writer w;
    // A fid that may dangle, alias the root, or belong to no volume.
    w.PutFid(Fid{static_cast<VolumeId>(rng.Below(6)),
                 static_cast<uint32_t>(rng.Below(10)),
                 static_cast<uint32_t>(rng.Below(4))});
    switch (rng.Below(4)) {
      case 0: w.PutString(std::string(rng.Below(300), 'A')); break;
      case 1: w.PutString("../../../etc/passwd"); break;
      case 2: w.PutU64(rng.NextU64()); break;
      case 3: w.PutBytes(Bytes(rng.Below(64), 0xff)); break;
    }
    (void)conn->Call(procs[rng.Below(std::size(procs))], w.Take());
  }

  auto report = campus_->registry().SalvageVolume(home_.volume);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  EXPECT_TRUE(ws_->ReadWholeFile("/vice/usr/fuzzer/canary").ok());
}

TEST_P(FuzzDispatchTest, HostileMutationsBounceOffProtection) {
  // A second, unprivileged user aims mutations at the fuzzer's volume and
  // the root volume; nothing may change.
  auto stranger = campus_->protection().CreateUser("stranger", "pw2");
  ASSERT_TRUE(stranger.ok());
  auto key = crypto::DeriveKeyFromPassword("pw2", "itc.cmu.edu");
  auto conn = rpc::ClientConnection::Connect(
      campus_->topology().WorkstationNode(0, 0), *stranger, key,
      &campus_->server(0).endpoint(), &campus_->network(), campus_->config().cost,
      &clock_, 777);
  ASSERT_TRUE(conn.ok());

  Rng rng(GetParam() + 17);
  const VolumeId root_vol = campus_->registry().location().root_volume;
  for (int i = 0; i < 100; ++i) {
    rpc::Writer w;
    w.PutFid(rng.Chance(0.5) ? vice::VolumeRootFid(home_.volume)
                             : vice::VolumeRootFid(root_vol));
    w.PutString("x" + std::to_string(i));
    if (rng.Chance(0.5)) w.PutU32(0777);
    const uint32_t mutators[] = {13, 20, 21, 23, 24, 31};
    (void)(*conn)->Call(mutators[rng.Below(std::size(mutators))], w.Take());
  }

  // The fuzzer's home contains exactly what it did before.
  auto names = ws_->ReadDir("/vice/usr/fuzzer");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "canary");
}

TEST_P(FuzzDispatchTest, RegistryEdgeCases) {
  // Targeted abuse of the op-registry path: unknown opcodes (gaps in and
  // around the schema), truncated payloads, and oversized length fields must
  // all come back as clean errors, never a crash.
  auto conn = RawConnection();
  ASSERT_NE(conn, nullptr);
  Rng rng(GetParam() ^ 0xabcdef12);

  // Opcodes the schema does not contain: 0, the 6..9 gap, the retired 51 and
  // 53, past-the-end, max.
  const uint32_t unknown[] = {0, 6, 7, 8, 9, 15, 28, 32, 42, 51, 53, 54, 61, 80, 0xffffffff};
  for (uint32_t proc : unknown) {
    auto reply = conn->Call(proc, Bytes{});
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status(), Status::kProtocolError);
  }

  // Truncated payloads: a fid cut off after 1..11 bytes against every op
  // that starts by reading one.
  const uint32_t fid_ops[] = {10, 11, 12, 13, 14, 20, 21, 22, 23, 24, 30, 31, 40, 41, 50};
  for (uint32_t proc : fid_ops) {
    rpc::Writer w;
    w.PutFid(Fid{home_.volume, 1, 1});
    Bytes full = w.Take();
    Bytes truncated(full.begin(), full.begin() + 1 + rng.Below(full.size() - 1));
    (void)conn->Call(proc, truncated);
  }

  // Oversized length fields: a string/bytes header promising ~4 GiB backed
  // by a handful of actual bytes. The bounds-checked reader must refuse.
  // RenewLeases (52) opens with its fid count instead: ~4G fids, none sent.
  for (uint32_t proc : {13u, 20u, 21u, 22u, 23u, 27u, 31u, 52u}) {
    rpc::Writer w;
    if (proc != 52) w.PutFid(Fid{home_.volume, 1, 1});
    w.PutU32(0xffffffff);  // length prefix with no such body
    w.PutU8(0x41);
    w.PutU8(0x41);
    (void)conn->Call(proc, w.Take());
  }

  auto report = campus_->registry().SalvageVolume(home_.volume);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  auto canary = ws_->ReadWholeFile("/vice/usr/fuzzer/canary");
  ASSERT_TRUE(canary.ok());
  EXPECT_EQ(ToString(*canary), "alive");
}

TEST_P(FuzzDispatchTest, ProtectionDispatcherSurvivesGarbage) {
  // The protection server routes through the same registry machinery; give
  // its dispatcher the same hostile treatment on a standalone instance.
  net::Topology topo(net::TopologyConfig{1, 1, 1});
  sim::CostModel cost = sim::CostModel::Default1985();
  net::Network network(topo, cost);
  protection::ProtectionService service;
  const UserId user = *service.CreateUser("mortal", "user-pw");
  protection::ProtectionRpcServer server(topo.ServerNode(0, 0), &network, cost,
                                         rpc::RpcConfig{}, &service, 31);

  auto key = crypto::DeriveKeyFromPassword("user-pw", "itc.cmu.edu");
  sim::Clock clock;
  auto conn = rpc::ClientConnection::Connect(topo.WorkstationNode(0, 0), user, key,
                                             &server.endpoint(), &network, cost, &clock,
                                             999 + GetParam());
  ASSERT_TRUE(conn.ok());

  Rng rng(GetParam() * 0x9e3779b9u);
  for (int i = 0; i < 300; ++i) {
    const uint32_t proc = static_cast<uint32_t>(rng.Below(12));  // 1..6 valid
    Bytes payload(rng.Below(100));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextU64());
    (void)(*conn)->Call(proc, payload);
  }
  for (uint32_t proc : {0u, 7u, 61u, 0xffffffffu}) {
    auto reply = (*conn)->Call(proc, Bytes{});
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status(), Status::kProtocolError);
  }
  // Oversized string length against the ops that parse strings.
  for (uint32_t proc : {1u, 2u, 5u}) {
    rpc::Writer w;
    w.PutU32(0xffffffff);
    w.PutU8(0x41);
    (void)(*conn)->Call(proc, w.Take());
  }

  // The protection server still answers sensibly.
  auto whoami = (*conn)->Call(6, Bytes{});
  ASSERT_TRUE(whoami.ok());
  rpc::Reader r(*whoami);
  ASSERT_EQ(rpc::ExpectOk(r), Status::kOk);
  auto got = r.U32();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, user);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDispatchTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace itc
