// Crash-recovery unit tests: the intention log's lifecycle, the write-ahead
// discipline of the mutating handlers, crash-point semantics (Section 3.5's
// store-on-close atomicity: an operation the client never saw a reply for
// must not survive recovery), and the volatile/durable state split of
// SimulateCrash/Restart.

#include <string_view>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/rpc/fault_injector.h"
#include "src/rpc/wire.h"
#include "src/vice/file_server.h"
#include "src/vice/recovery/intention_log.h"
#include "src/vice/recovery/stable_store.h"
#include "src/vice/volume_registry.h"

namespace itc::vice {
namespace {

using protection::AccessList;
using protection::Principal;
using recovery::IntentKind;
using recovery::IntentState;
using recovery::IntentionLog;

// --- IntentionLog in isolation ------------------------------------------------

TEST(IntentionLogTest, AppendCommitAbortLifecycle) {
  IntentionLog log;
  EXPECT_TRUE(log.empty());

  const Fid fid{1, 2, 3};
  const uint64_t a = log.AppendStore(1, 10, fid, content::Ref::Canonicalize(ToBytes("x")));
  const uint64_t b = log.Append(IntentKind::kRemoveFile, 1, 20, recovery::EncodeRemove(fid, "f"));
  const uint64_t c = log.Append(IntentKind::kSetAcl, 1, 30, recovery::EncodeSetAcl(fid, Bytes{}));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_GT(log.bytes_appended(), 0u);

  log.MarkCommitted(a);
  log.MarkAborted(b);
  EXPECT_EQ(log.records()[0].state, IntentState::kCommitted);
  EXPECT_EQ(log.records()[1].state, IntentState::kAborted);
  EXPECT_EQ(log.records()[2].state, IntentState::kLogged);

  const uint64_t bytes_before = log.bytes_appended();
  log.Truncate();
  EXPECT_TRUE(log.empty());
  // bytes_appended counts lifetime log traffic, not live records.
  EXPECT_EQ(log.bytes_appended(), bytes_before);
  // LSNs keep increasing across truncation.
  EXPECT_GT(log.AppendStore(1, 40, fid, content::Ref{}), c);
}

TEST(IntentionLogTest, ApplyIntentionReplaysAStore) {
  AccessList acl;
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup), protection::kAllRights);
  Volume vol(7, "v", VolumeType::kReadWrite, kAnonymousUser, acl, 0);
  Fid f = *vol.CreateFile(vol.root(), "f", kAnonymousUser, 0644);

  IntentionLog log;
  const uint64_t lsn =
      log.AppendStore(7, 99, f, content::Ref::Canonicalize(ToBytes("replayed")));
  log.MarkCommitted(lsn);
  ASSERT_EQ(recovery::ApplyIntention(vol, log.records()[0]), Status::kOk);
  EXPECT_EQ(ToString(*vol.FetchData(f)), "replayed");
  // The replay stamped the record's time onto the volume clock.
  EXPECT_EQ((*vol.Lookup(f))->status.mtime, 99);

  // A store record carries its contents by reference only: literal bytes
  // after the fid are a malformed record, not a second encoding.
  rpc::Writer w;
  w.PutFid(f);
  w.PutBytes(ToBytes("literal"));
  log.MarkCommitted(log.Append(IntentKind::kStore, 7, 100, w.Take()));
  EXPECT_EQ(recovery::ApplyIntention(vol, log.records()[1]), Status::kProtocolError);
  EXPECT_EQ(ToString(*vol.FetchData(f)), "replayed");
}

// --- StableStore in isolation -------------------------------------------------

// An image is the volume as of its checkpoint, sized on first read: changes
// to the live volume after the checkpoint must not reach image_bytes().
TEST(StableStoreTest, ImageIsSizedAsOfItsCheckpoint) {
  AccessList acl;
  acl.SetPositive(Principal::Group(protection::kAnyUserGroup), protection::kAllRights);
  Volume vol(7, "v", VolumeType::kReadWrite, kAnonymousUser, acl, 0);
  Fid f = *vol.CreateFile(vol.root(), "f", kAnonymousUser, 0644);
  ASSERT_EQ(vol.StoreData(f, ToBytes("small")), Status::kOk);

  recovery::StableStore store;
  store.CheckpointVolume(vol);
  const uint64_t checkpointed = vol.Dump().size();

  ASSERT_TRUE(vol.CreateFile(vol.root(), "g", kAnonymousUser, 0644).ok());
  ASSERT_EQ(vol.StoreData(f, ToBytes("grown well past its checkpointed size")), Status::kOk);
  ASSERT_NE(vol.Dump().size(), checkpointed);
  EXPECT_EQ(store.image_bytes(), checkpointed);
  EXPECT_EQ(store.image_bytes(), checkpointed);

  store.CheckpointVolume(vol);
  EXPECT_EQ(store.image_bytes(), vol.Dump().size());
}

// --- Server-level crash/restart ----------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : topo_(net::TopologyConfig{1, 1, 2}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_) {
    server_ = std::make_unique<ViceServer>(0, topo_.NthServer(0), &network_, cost_,
                                           rpc::RpcConfig{}, ConfigForThisTest(), &protection_,
                                           1000);
    registry_.RegisterServer(server_.get());
    alice_ = *protection_.CreateUser("alice", "pw-a");

    AccessList acl;
    acl.SetPositive(Principal::User(alice_), protection::kAllRights);
    acl.SetPositive(Principal::Group(protection::kAnyUserGroup),
                    protection::kLookup | protection::kRead);
    vol_ = *registry_.CreateVolume("v0", /*custodian=*/0, alice_, acl, 0);
    ITC_CHECK(registry_.SetRootVolume(vol_) == Status::kOk);
  }

  std::unique_ptr<rpc::ClientConnection> Connect() {
    auto key = crypto::DeriveKeyFromPassword("pw-a", "itc.cmu.edu");
    auto conn = rpc::ClientConnection::Connect(topo_.WorkstationNode(0, 0), alice_, key,
                                               &server_->endpoint(), &network_, cost_,
                                               &clock_, 77);
    ITC_CHECK(conn.ok());
    return std::move(*conn);
  }

  Result<Fid> CreateFile(rpc::ClientConnection* conn, const std::string& name) {
    rpc::Writer w;
    w.PutFid(VolumeRootFid(vol_));
    w.PutString(name);
    w.PutU32(0644);
    ASSIGN_OR_RETURN(Bytes reply, conn->Call(static_cast<uint32_t>(Proc::kCreateFile), w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    return r.FidField();
  }

  Status Store(rpc::ClientConnection* conn, const Fid& fid, const std::string& data) {
    rpc::Writer w;
    w.PutFid(fid);
    w.PutBytes(ToBytes(data));
    auto reply = conn->Call(static_cast<uint32_t>(Proc::kStore), w.Take());
    if (!reply.ok()) return reply.status();
    rpc::Reader r(*reply);
    Status st = Status::kInternal;
    RETURN_IF_ERROR(r.ReadStatus(&st));
    return st;
  }

  Result<Bytes> Fetch(rpc::ClientConnection* conn, const Fid& fid) {
    rpc::Writer w;
    w.PutFid(fid);
    ASSIGN_OR_RETURN(Bytes reply, conn->Call(static_cast<uint32_t>(Proc::kFetch), w.Take()));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    RETURN_IF_ERROR(ReadVnodeStatus(r).status());
    return r.BytesField();
  }

  // A server's config is fixed when it is built: CheckpointIntervalBoundsTheLog
  // gets one that checkpoints every second commit, the rest the default.
  static ViceConfig ConfigForThisTest() {
    ViceConfig config;
    if (std::string_view(::testing::UnitTest::GetInstance()->current_test_info()->name()) ==
        "CheckpointIntervalBoundsTheLog") {
      config.log_checkpoint_interval = 2;
    }
    return config;
  }

  Result<uint32_t> ProbeEpoch(rpc::ClientConnection* conn) {
    ASSIGN_OR_RETURN(Bytes reply,
                     conn->Call(static_cast<uint32_t>(Proc::kProbeEpoch), Bytes{}));
    rpc::Reader r(reply);
    RETURN_IF_ERROR(rpc::ExpectOk(r));
    return r.U32();
  }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  sim::Clock clock_;
  protection::ProtectionService protection_;
  std::unique_ptr<ViceServer> server_;
  VolumeRegistry registry_;
  UserId alice_ = kAnonymousUser;
  VolumeId vol_ = kInvalidVolume;
};

TEST_F(RecoveryTest, StoreSurvivesCrashAndRestart) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "durable"), Status::kOk);

  server_->SimulateCrash();
  EXPECT_TRUE(server_->crashed());
  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.volumes_restored, 1u);
  EXPECT_EQ(report.replay_failures, 0u);
  EXPECT_GT(report.recovery_time, 0);

  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "durable");
}

TEST_F(RecoveryTest, CrashDropsVolatileStateRestartRestoresVolumes) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  const NodeId client = topo_.WorkstationNode(0, 0);
  EXPECT_EQ(server_->endpoint().ConnectionCountFrom(client), 1u);

  server_->SimulateCrash();
  EXPECT_EQ(server_->endpoint().ConnectionCountFrom(client), 0u);
  EXPECT_EQ(server_->callbacks().promise_count(0), 0u);
  EXPECT_EQ(server_->volume_count(), 0u);

  // The stale connection is told the server no longer knows it.
  EXPECT_EQ(Store(conn.get(), f, "x"), Status::kUnavailable);
  server_->Restart(clock_.now());
  EXPECT_FALSE(server_->crashed());
  EXPECT_EQ(server_->volume_count(), 1u);
  EXPECT_EQ(Store(conn.get(), f, "x"), Status::kConnectionBroken);
  auto conn2 = Connect();
  EXPECT_EQ(Store(conn2.get(), f, "x"), Status::kOk);
}

TEST_F(RecoveryTest, UnregisterCallbackSinkClosesThatNodesConnections) {
  auto conn = Connect();
  const NodeId client = topo_.WorkstationNode(0, 0);
  ASSERT_EQ(server_->endpoint().ConnectionCountFrom(client), 1u);
  // Regression: surrendering the sink must also drop the node's transport
  // state, or a later re-login would talk over a half-dead channel.
  server_->UnregisterCallbackSink(client);
  EXPECT_EQ(server_->endpoint().ConnectionCountFrom(client), 0u);
}

TEST_F(RecoveryTest, CrashBeforeLogAppendLeavesNoTrace) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "old"), Status::kOk);
  const size_t log_before = server_->stable_store().log().size();

  server_->endpoint().fault().ArmCrash(rpc::CrashPoint::kBeforeLogAppend);
  EXPECT_EQ(Store(conn.get(), f, "new"), Status::kUnavailable);
  EXPECT_TRUE(server_->crashed());
  EXPECT_EQ(server_->stable_store().log().size(), log_before);

  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "old");
}

TEST_F(RecoveryTest, CrashAfterLogAppendDiscardsUncommittedIntention) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "old"), Status::kOk);

  server_->endpoint().fault().ArmCrash(rpc::CrashPoint::kAfterLogAppend);
  EXPECT_EQ(Store(conn.get(), f, "torn"), Status::kUnavailable);

  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.intentions_discarded, 1u);
  // The client never got a reply, so the operation must not surface.
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "old");
}

TEST_F(RecoveryTest, CrashBeforeReplyReplaysCommittedIntention) {
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "old"), Status::kOk);

  server_->endpoint().fault().ArmCrash(rpc::CrashPoint::kBeforeReply);
  // The reply was lost, but the intention committed: after recovery the
  // operation is fully visible (at-most-once from the client's view, the
  // effect is simply the committed one).
  EXPECT_EQ(Store(conn.get(), f, "committed"), Status::kUnavailable);

  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.intentions_replayed, 1u);
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "committed");
}

TEST_F(RecoveryTest, CheckpointIntervalBoundsTheLog) {
  ASSERT_EQ(server_->config().log_checkpoint_interval, 2u);
  auto conn = Connect();
  Fid f = *CreateFile(conn.get(), "f");
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(Store(conn.get(), f, "v" + std::to_string(i)), Status::kOk);
  }
  // Every second commit re-dumps the volumes and truncates, so the log never
  // holds more than one full interval.
  EXPECT_LE(server_->stable_store().log().size(), 2u);

  server_->SimulateCrash();
  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "v6");
}

TEST_F(RecoveryTest, ProbeEpochReportsRestarts) {
  auto conn = Connect();
  EXPECT_EQ(*ProbeEpoch(conn.get()), 0u);

  server_->SimulateCrash();
  server_->Restart(clock_.now());
  auto conn2 = Connect();
  EXPECT_EQ(*ProbeEpoch(conn2.get()), 1u);

  server_->SimulateCrash();
  server_->Restart(clock_.now());
  auto conn3 = Connect();
  EXPECT_EQ(*ProbeEpoch(conn3.get()), 2u);
}

TEST_F(RecoveryTest, DirectoryOpsReplayDeterministically) {
  auto conn = Connect();

  // A mixed mutation history: mkdir, create, store, rename, remove.
  rpc::Writer mk;
  mk.PutFid(VolumeRootFid(vol_));
  mk.PutString("d");
  mk.PutBytes(Bytes{});  // inherit ACL
  auto mk_reply = conn->Call(static_cast<uint32_t>(Proc::kMakeDir), mk.Take());
  ASSERT_TRUE(mk_reply.ok());
  rpc::Reader mkr(*mk_reply);
  ASSERT_EQ(rpc::ExpectOk(mkr), Status::kOk);
  Fid d = *mkr.FidField();

  Fid f = *CreateFile(conn.get(), "f");
  ASSERT_EQ(Store(conn.get(), f, "data"), Status::kOk);

  rpc::Writer rn;
  rn.PutFid(VolumeRootFid(vol_));
  rn.PutString("f");
  rn.PutFid(d);
  rn.PutString("g");
  auto rn_reply = conn->Call(static_cast<uint32_t>(Proc::kRename), rn.Take());
  ASSERT_TRUE(rn_reply.ok());
  rpc::Reader rnr(*rn_reply);
  ASSERT_EQ(rpc::ExpectOk(rnr), Status::kOk);

  const Bytes pre_crash_dump = registry_.FindVolume(vol_)->Dump();

  server_->SimulateCrash();
  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.replay_failures, 0u);
  EXPECT_TRUE(report.salvage.clean());

  // Replay reconstructed the exact same volume, fid counters included.
  EXPECT_EQ(registry_.FindVolume(vol_)->Dump(), pre_crash_dump);
  auto conn2 = Connect();
  EXPECT_EQ(ToString(*Fetch(conn2.get(), f)), "data");
}

// A directory made and never changed keeps its status across a crash and
// restart: salvage has no length to rewrite, so the volume's dump is
// byte-identical and the report clean.
TEST_F(RecoveryTest, UntouchedDirectorySurvivesRestartUnchanged) {
  auto conn = Connect();
  rpc::Writer mk;
  mk.PutFid(VolumeRootFid(vol_));
  mk.PutString("empty");
  mk.PutBytes(Bytes{});  // inherit ACL
  auto mk_reply = conn->Call(static_cast<uint32_t>(Proc::kMakeDir), mk.Take());
  ASSERT_TRUE(mk_reply.ok());
  rpc::Reader mkr(*mk_reply);
  ASSERT_EQ(rpc::ExpectOk(mkr), Status::kOk);

  const Bytes pre_crash_dump = registry_.FindVolume(vol_)->Dump();
  server_->SimulateCrash();
  auto report = server_->Restart(clock_.now());
  EXPECT_TRUE(report.salvage.clean());
  EXPECT_EQ(report.salvage.dir_lengths_corrected, 0u);
  EXPECT_EQ(registry_.FindVolume(vol_)->Dump(), pre_crash_dump);
}

}  // namespace
}  // namespace itc::vice
