// Behavioural tests of Venus through a small campus: validation schemes,
// location hints, read-only replica preference, eviction-driven callback
// removal, and stale-fid recovery.

#include "src/venus/venus.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/campus/campus.h"
#include "src/common/content.h"
#include "src/rpc/fault_injector.h"
#include "src/workload/populate.h"
#include "src/workload/synthetic_user.h"

namespace itc::venus {
namespace {

using campus::Campus;
using campus::CampusConfig;

class VenusTest : public ::testing::Test {
 protected:
  void Build(CampusConfig config) {
    campus_ = std::make_unique<Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("alice", "pw", /*custodian=*/0);
    ASSERT_TRUE(home.ok());
    alice_ = *home;
  }

  virtue::Workstation& Login(size_t ws_index) {
    auto& ws = campus_->workstation(ws_index);
    EXPECT_EQ(ws.LoginWithPassword(alice_.user, "pw"), Status::kOk);
    return ws;
  }

  std::unique_ptr<Campus> campus_;
  Campus::UserHome alice_;
};

TEST_F(VenusTest, CallbackModeSkipsValidationOnWarmOpens) {
  Build(CampusConfig::Revised(1, 2));
  auto& ws = Login(0);
  const std::string path = "/vice/usr/alice/f";
  ASSERT_EQ(ws.WriteWholeFile(path, ToBytes("x")), Status::kOk);
  ASSERT_TRUE(ws.ReadWholeFile(path).ok());  // warm: revalidates the parent dir

  const auto before = ws.venus().stats();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ws.ReadWholeFile(path).ok());
  const auto after = ws.venus().stats();
  // Warm opens are pure cache hits: no fetches, no validations.
  EXPECT_EQ(after.fetches, before.fetches);
  EXPECT_EQ(after.validations, before.validations);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 5u);
}

TEST_F(VenusTest, CheckOnOpenValidatesEveryOpen) {
  CampusConfig config = CampusConfig::Revised(1, 2);
  config.UseValidation(vice::Validation::kCheckOnOpen);
  Build(config);
  auto& ws = Login(0);
  const std::string path = "/vice/usr/alice/f";
  ASSERT_EQ(ws.WriteWholeFile(path, ToBytes("x")), Status::kOk);
  ASSERT_TRUE(ws.ReadWholeFile(path).ok());  // warm: refetch the changed dir

  const auto before = ws.venus().stats();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ws.ReadWholeFile(path).ok());
  const auto after = ws.venus().stats();
  // Each open round-trips a Validate (the prototype's dominant traffic),
  // and traversal validates cached directories as well.
  EXPECT_GE(after.validations - before.validations, 5u);
  EXPECT_EQ(after.fetches, before.fetches);  // but no refetches
}

TEST_F(VenusTest, CheckOnOpenSeesRemoteUpdateWithoutCallbacks) {
  CampusConfig config = CampusConfig::Revised(1, 3);
  config.UseValidation(vice::Validation::kCheckOnOpen);
  Build(config);
  auto other = campus_->AddUserWithHome("bob", "pw2", 0);
  ASSERT_TRUE(other.ok());

  auto& ws_a = Login(0);
  auto& ws_b = campus_->workstation(1);
  ASSERT_EQ(ws_b.LoginWithPassword(other->user, "pw2"), Status::kOk);

  const std::string path = "/vice/usr/alice/shared";
  ASSERT_EQ(ws_a.WriteWholeFile(path, ToBytes("v1")), Status::kOk);
  ASSERT_TRUE(ws_b.ReadWholeFile(path).ok());
  ASSERT_EQ(ws_a.WriteWholeFile(path, ToBytes("v2")), Status::kOk);
  // No callback arrives (disabled); validation on open catches the change.
  auto v2 = ws_b.ReadWholeFile(path);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(ToString(*v2), "v2");
}

TEST_F(VenusTest, EvictionNotifiesCustodian) {
  CampusConfig config = CampusConfig::Revised(1, 1);
  config.workstation.venus.cache_limit = VenusConfig::CacheLimit::kSpace;
  config.workstation.venus.max_cache_bytes = 64 * 1024;
  Build(config);
  ASSERT_EQ(workload::PopulateUserFiles(*campus_, alice_.volume, 40, 7), Status::kOk);

  auto& ws = Login(0);
  // Stream through far more data than the cache can hold.
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        ws.ReadWholeFile("/vice/usr/alice/" + workload::SyntheticUser::OwnFileName(i))
            .ok());
  }
  EXPECT_LE(ws.venus().cache().data_bytes(), 64 * 1024u);
  EXPECT_GT(ws.venus().cache().stats().evictions, 0u);
  // Server-side promise count stays bounded by what is actually cached
  // (RemoveCallback was sent for evicted files).
  const size_t promises = campus_->server(0).callbacks().promise_count(ws.clock().now());
  EXPECT_LE(promises, ws.venus().cache().entry_count() + 2);
}

TEST_F(VenusTest, ReadOnlyReplicaPreferredInOwnCluster) {
  CampusConfig config = CampusConfig::Revised(2, 2);
  Build(config);
  auto sysvol = campus_->CreateSystemVolume("sys", "/unix/sun", /*custodian=*/0);
  ASSERT_TRUE(sysvol.ok());
  ASSERT_EQ(workload::PopulateSystemBinaries(*campus_, *sysvol, 5, 3), Status::kOk);

  // Release read-only replicas at both cluster servers.
  ASSERT_TRUE(campus_->registry().ReleaseReadOnly(*sysvol, "sys.ro", {0, 1}).ok());

  // A workstation in cluster 1 must fetch binaries from its own cluster
  // server (1), not the custodian (0). Warm the directory cache first; the
  // root volume itself is unreplicated, so its directories legitimately come
  // from server 0.
  auto& ws = Login(2);  // cluster 1
  ASSERT_TRUE(ws.ReadWholeFile("/vice/unix/sun/bin/prog0").ok());
  campus_->ResetAllStats();
  ASSERT_TRUE(ws.ReadWholeFile("/vice/unix/sun/bin/prog1").ok());
  auto hist0 = campus_->server(0).CallHistogram();
  auto hist1 = campus_->server(1).CallHistogram();
  EXPECT_EQ(hist0[vice::CallClass::kFetch], 0u);
  EXPECT_GE(hist1[vice::CallClass::kFetch], 1u);
  EXPECT_EQ(campus_->network().stats().cross_cluster_messages, 0u);
}

TEST_F(VenusTest, ReplicatedRootVolumeLocalizesAllResolution) {
  // The full AFS-style deployment: the root volume itself is released
  // read-only to every cluster server, so even pathname resolution never
  // crosses a bridge for read traffic.
  CampusConfig config = CampusConfig::Revised(2, 2);
  Build(config);
  auto sysvol = campus_->CreateSystemVolume("sys", "/unix/sun", /*custodian=*/0);
  ASSERT_TRUE(sysvol.ok());
  ASSERT_EQ(workload::PopulateSystemBinaries(*campus_, *sysvol, 3, 3), Status::kOk);
  ASSERT_TRUE(campus_->registry().ReleaseReadOnly(*sysvol, "sys.ro", {0, 1}).ok());
  const VolumeId root = campus_->registry().location().root_volume;
  ASSERT_TRUE(campus_->registry().ReleaseReadOnly(root, "root.ro", {0, 1}).ok());

  auto& ws = Login(2);  // cluster 1
  campus_->ResetAllStats();
  ASSERT_TRUE(ws.ReadWholeFile("/vice/unix/sun/bin/prog0").ok());
  // Every fetch — root dirs included — was served inside cluster 1.
  auto hist0 = campus_->server(0).CallHistogram();
  EXPECT_EQ(hist0[vice::CallClass::kFetch], 0u);
  EXPECT_EQ(campus_->network().stats().cross_cluster_messages, 0u);

  // Writes still reach the read-write volumes: Alice edits her home (mounted
  // inside the RW root), which must succeed even though reads went RO.
  EXPECT_EQ(ws.WriteWholeFile("/vice/usr/alice/note", ToBytes("rw ok")), Status::kOk);
}

TEST_F(VenusTest, WritesBypassReadOnlyReplica) {
  CampusConfig config = CampusConfig::Revised(1, 1);
  Build(config);
  auto sysvol = campus_->CreateSystemVolume("sys", "/unix/sun", 0);
  ASSERT_TRUE(sysvol.ok());
  ASSERT_EQ(campus_->PopulateDirect(*sysvol, "/bin/tool", ToBytes("v1")), Status::kOk);
  ASSERT_TRUE(campus_->registry().ReleaseReadOnly(*sysvol, "sys.ro", {0}).ok());

  auto& ws = Login(0);
  // Reading goes to the clone...
  ASSERT_TRUE(ws.ReadWholeFile("/vice/unix/sun/bin/tool").ok());
  // ...but an administrator write resolves to the RW volume. Alice lacks
  // rights there (Administrators only), so she is denied — NOT told
  // "read-only volume", proving resolution reached the RW path.
  EXPECT_EQ(ws.WriteWholeFile("/vice/unix/sun/bin/tool", ToBytes("v2")),
            Status::kPermissionDenied);
}

TEST_F(VenusTest, StaleNameCacheRecoversAfterRemoteReplace) {
  // Prototype mode resolves by pathname and caches name->fid. If another
  // workstation deletes and recreates the file, the fid goes stale; Venus
  // must re-resolve transparently.
  CampusConfig config = CampusConfig::Prototype(1, 2);
  Build(config);
  auto other = campus_->AddUserWithHome("bob", "pw2", 0);
  ASSERT_TRUE(other.ok());

  auto& ws_a = Login(0);
  auto& ws_b = campus_->workstation(1);
  ASSERT_EQ(ws_b.LoginWithPassword(other->user, "pw2"), Status::kOk);

  // Bob creates in his own home; Alice reads it (AnyUser r).
  const std::string path = "/vice/usr/bob/doc";
  ASSERT_EQ(ws_b.WriteWholeFile(path, ToBytes("v1")), Status::kOk);
  ASSERT_EQ(ToString(*ws_a.ReadWholeFile(path)), "v1");

  // Bob replaces the file wholesale (delete + recreate = new fid).
  ASSERT_EQ(ws_b.Unlink(path), Status::kOk);
  ASSERT_EQ(ws_b.WriteWholeFile(path, ToBytes("v2")), Status::kOk);

  auto v2 = ws_a.ReadWholeFile(path);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(ToString(*v2), "v2");
}

TEST_F(VenusTest, PrototypeModeRefusesViceSymlinksAndDirRenames) {
  Build(CampusConfig::Prototype(1, 1));
  auto& ws = Login(0);
  ASSERT_EQ(ws.MkDir("/vice/usr/alice/dir"), Status::kOk);
  // Section 5.1's prototype shortcomings, reproduced.
  EXPECT_EQ(ws.venus().Symlink("/usr/alice/dir", "/usr/alice/link"),
            Status::kNotSupported);
  EXPECT_EQ(ws.venus().Rename("/usr/alice/dir", "/usr/alice/dir2"),
            Status::kNotSupported);
  // File renames still work.
  ASSERT_EQ(ws.WriteWholeFile("/vice/usr/alice/f", ToBytes("x")), Status::kOk);
  EXPECT_EQ(ws.venus().Rename("/usr/alice/f", "/usr/alice/g"), Status::kOk);
}

TEST_F(VenusTest, ViceSymlinksWorkInRevisedMode) {
  Build(CampusConfig::Revised(1, 1));
  auto& ws = Login(0);
  ASSERT_EQ(ws.WriteWholeFile("/vice/usr/alice/real", ToBytes("target data")),
            Status::kOk);
  ASSERT_EQ(ws.Symlink("real", "/vice/usr/alice/link"), Status::kOk);
  auto via_link = ws.ReadWholeFile("/vice/usr/alice/link");
  ASSERT_TRUE(via_link.ok());
  EXPECT_EQ(ToString(*via_link), "target data");
  EXPECT_EQ(*ws.ReadLink("/vice/usr/alice/link"), "real");
}

TEST_F(VenusTest, LogoutInvalidatesCacheTrust) {
  Build(CampusConfig::Revised(1, 1));
  auto& ws = Login(0);
  ASSERT_EQ(ws.WriteWholeFile("/vice/usr/alice/f", ToBytes("x")), Status::kOk);
  ws.Logout();
  // Without a session nothing shared is reachable.
  EXPECT_EQ(ws.ReadWholeFile("/vice/usr/alice/f").status(), Status::kAuthFailed);
  // Re-login revalidates rather than blindly trusting the cache.
  ASSERT_EQ(ws.LoginWithPassword(alice_.user, "pw"), Status::kOk);
  const auto before = ws.venus().stats();
  ASSERT_TRUE(ws.ReadWholeFile("/vice/usr/alice/f").ok());
  const auto after = ws.venus().stats();
  EXPECT_GT((after.validations + after.fetches) - (before.validations + before.fetches),
            0u);
}

TEST_F(VenusTest, OpenHandleSurvivesRemoteReplacement) {
  // Unix open-file semantics across the stale-fid path: while a descriptor
  // is open, another workstation deletes and recreates the file. The open
  // handle keeps reading its (old) copy; new opens see the new file.
  Build(CampusConfig::Revised(1, 2));
  auto other = campus_->AddUserWithHome("bob", "pw2", 0);
  ASSERT_TRUE(other.ok());
  auto& ws_a = Login(0);
  auto& ws_b = campus_->workstation(1);
  ASSERT_EQ(ws_b.LoginWithPassword(other->user, "pw2"), Status::kOk);

  const std::string path = "/vice/usr/bob/doc";
  ASSERT_EQ(ws_b.WriteWholeFile(path, ToBytes("old content")), Status::kOk);

  auto fd = ws_a.Open(path, virtue::kRead);
  ASSERT_TRUE(fd.ok());

  // Replace remotely: delete + recreate (fresh fid).
  ASSERT_EQ(ws_b.Unlink(path), Status::kOk);
  ASSERT_EQ(ws_b.WriteWholeFile(path, ToBytes("new content")), Status::kOk);

  // A new open on ws_a transparently re-resolves to the new file...
  auto fresh = ws_a.ReadWholeFile(path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ToString(*fresh), "new content");

  // ...while the original descriptor still reads the old bytes and closes
  // cleanly (the pinned cache entry was invalidated, not destroyed).
  auto old_bytes = ws_a.Read(*fd, 100);
  ASSERT_TRUE(old_bytes.ok());
  EXPECT_EQ(ToString(*old_bytes), "old content");
  EXPECT_EQ(ws_a.Close(*fd), Status::kOk);
}

TEST_F(VenusTest, AdvisoryLocksAcrossWorkstations) {
  Build(CampusConfig::Revised(1, 2));
  auto other = campus_->AddUserWithHome("bob", "pw2", 0);
  ASSERT_TRUE(other.ok());
  auto& ws_a = Login(0);
  auto& ws_b = campus_->workstation(1);
  ASSERT_EQ(ws_b.LoginWithPassword(other->user, "pw2"), Status::kOk);

  ASSERT_EQ(ws_a.WriteWholeFile("/vice/usr/alice/db", ToBytes("x")), Status::kOk);

  // AnyUser holds only lookup+read on Alice's home; locking needs the Lock
  // right, so Bob is refused until Alice grants it.
  EXPECT_EQ(ws_b.venus().SetLock("/usr/alice/db", vice::LockMode::kShared),
            Status::kPermissionDenied);
  auto acl = ws_a.venus().GetAcl("/usr/alice");
  ASSERT_TRUE(acl.ok());
  acl->SetPositive(protection::Principal::User(other->user),
                   protection::kLookup | protection::kRead | protection::kLock);
  ASSERT_EQ(ws_a.venus().SetAcl("/usr/alice", *acl), Status::kOk);

  ASSERT_EQ(ws_a.venus().SetLock("/usr/alice/db", vice::LockMode::kExclusive),
            Status::kOk);
  EXPECT_EQ(ws_b.venus().SetLock("/usr/alice/db", vice::LockMode::kShared),
            Status::kLocked);
  ASSERT_EQ(ws_a.venus().ReleaseLock("/usr/alice/db"), Status::kOk);
  EXPECT_EQ(ws_b.venus().SetLock("/usr/alice/db", vice::LockMode::kShared), Status::kOk);
}

// --- Whole-file fetch as a side effect (rpc::Bulk) ------------------------

// 3000 generative bytes followed by a literal tail.
content::Ref TailedContents() {
  Bytes bytes = content::Ref::ForSeed(11, 3000).Materialize();
  const Bytes tail = ToBytes("\n-- a literal tail");
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  return content::Ref::Canonicalize(std::move(bytes));
}

// How many of this workstation's Fetch calls ended in `status`.
uint64_t FetchOutcomes(Venus& venus, Status status) {
  const rpc::OpStats* fetch = venus.call_stats().Find(static_cast<uint32_t>(vice::Proc::kFetch));
  if (fetch == nullptr) return 0;
  auto it = fetch->error_codes.find(status);
  return it == fetch->error_codes.end() ? 0 : it->second;
}

CampusConfig Unsealed(uint32_t clusters) {
  CampusConfig config = CampusConfig::Revised(clusters, 2);
  config.rpc.encrypt = false;
  return config;
}

Fid EntryFid(vice::Volume& vol, const std::string& name) {
  return (*vol.LookupDir(vol.root()))->entries.at(name).fid;
}

// The buffer holding the cached copy of `fid`: null when nothing is cached.
std::shared_ptr<const Bytes> CachedTail(Venus& venus, const Fid& fid) {
  auto ref = venus.cache().ReadRef(fid);
  return ref.ok() ? ref->tail() : nullptr;
}

struct FetchAccounting {
  uint64_t server_reply_bytes = 0;
  uint64_t server_fetch_bytes = 0;
  uint64_t client_fetch_bytes = 0;
  uint64_t bytes_fetched = 0;
  bool operator==(const FetchAccounting&) const = default;
};

TEST_F(VenusTest, FetchAccountingIsTheSameSealedOrNot) {
  const content::Ref contents = TailedContents();
  auto fetch_once = [&](bool encrypt) {
    CampusConfig config = CampusConfig::Revised(1, 2);
    config.rpc.encrypt = encrypt;
    Build(config);
    EXPECT_EQ(campus_->PopulateDirect(alice_.volume, "/f", contents), Status::kOk);
    // A fresh workstation walks /, /usr and /usr/alice, then fetches f.
    auto& ws = Login(0);
    auto data = ws.ReadWholeFile("/vice/usr/alice/f");
    EXPECT_TRUE(data.ok());
    EXPECT_TRUE(data.ok() && *data == contents.Materialize());

    // On either kind of connection the cache holds the server's buffers.
    vice::Volume& home = *campus_->registry().FindVolume(alice_.volume);
    EXPECT_EQ(CachedTail(ws.venus(), home.root()), home.FetchRef(home.root())->tail());
    EXPECT_EQ(CachedTail(ws.venus(), EntryFid(home, "f")), contents.tail());

    const auto fetch = static_cast<uint32_t>(vice::Proc::kFetch);
    const rpc::ServerEndpoint& server = campus_->server(0).endpoint();
    FetchAccounting out;
    out.server_reply_bytes = server.call_stats().total_bytes_out();
    out.server_fetch_bytes = server.call_stats().Find(fetch)->bytes_out;
    out.client_fetch_bytes = ws.venus().call_stats().Find(fetch)->bytes_out;
    out.bytes_fetched = ws.venus().stats().bytes_fetched;
    return out;
  };
  const FetchAccounting unsealed = fetch_once(/*encrypt=*/false);
  const FetchAccounting sealed = fetch_once(/*encrypt=*/true);
  EXPECT_GT(unsealed.bytes_fetched, contents.size());
  EXPECT_GT(unsealed.server_fetch_bytes, unsealed.bytes_fetched);
  EXPECT_EQ(unsealed.server_fetch_bytes, unsealed.client_fetch_bytes);
  EXPECT_EQ(unsealed, sealed);
}

// Workstations that cache the same version of a directory read one name
// index, over sealed and unsealed connections alike. A callback break leads
// to the next version's index: the walk finds a name the old index lacks.
TEST_F(VenusTest, WorkstationsShareOneDirIndexPerVersion) {
  for (const bool encrypt : {false, true}) {
    SCOPED_TRACE(encrypt ? "sealed" : "unsealed");
    CampusConfig config = CampusConfig::Revised(1, 2);
    config.rpc.encrypt = encrypt;
    Build(config);
    auto& writer = Login(0);
    auto& reader = Login(1);
    ASSERT_EQ(writer.WriteWholeFile("/vice/usr/alice/a", ToBytes("a")), Status::kOk);
    ASSERT_TRUE(writer.ReadWholeFile("/vice/usr/alice/a").ok());
    ASSERT_TRUE(reader.ReadWholeFile("/vice/usr/alice/a").ok());

    const Fid home = vice::VolumeRootFid(alice_.volume);
    auto index_of = [&](virtue::Workstation& ws) {
      const CacheEntry* e = ws.venus().cache().Find(home);
      return e == nullptr ? nullptr : e->dir_index;
    };
    const std::shared_ptr<const vice::DirIndex> old_index = index_of(reader);
    ASSERT_NE(old_index, nullptr);
    EXPECT_EQ(index_of(writer), old_index);

    const uint64_t breaks = reader.venus().stats().callback_breaks_received;
    ASSERT_EQ(writer.WriteWholeFile("/vice/usr/alice/b", ToBytes("b")), Status::kOk);
    EXPECT_GT(reader.venus().stats().callback_breaks_received, breaks);
    EXPECT_EQ(old_index->Find("b").status(), Status::kNotFound);

    auto data = reader.ReadWholeFile("/vice/usr/alice/b");
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(ToString(*data), "b");
    const std::shared_ptr<const vice::DirIndex> new_index = index_of(reader);
    ASSERT_NE(new_index, nullptr);
    EXPECT_NE(new_index, old_index);
    EXPECT_TRUE(new_index->Find("b").ok());
    ASSERT_TRUE(writer.ReadWholeFile("/vice/usr/alice/b").ok());
    EXPECT_EQ(index_of(writer), new_index);
  }
}

TEST_F(VenusTest, DroppedFetchReplyInstallsNothing) {
  Build(Unsealed(1));
  const content::Ref contents = TailedContents();
  ASSERT_EQ(campus_->PopulateDirect(alice_.volume, "/f", contents), Status::kOk);
  auto& ws = Login(0);
  ASSERT_TRUE(ws.venus().Stat("/usr/alice/f").ok());  // directories cached
  const Fid fid = EntryFid(*campus_->registry().FindVolume(alice_.volume), "f");

  // The server runs the Fetch, but its reply (and the bulk beside it) is lost.
  campus_->server(0).endpoint().fault().DropNextReplies(1, vice::CallClass::kFetch);
  EXPECT_EQ(ws.ReadWholeFile("/vice/usr/alice/f").status(), Status::kUnavailable);
  const CacheEntry* e = ws.venus().cache().Find(fid);
  EXPECT_TRUE(e == nullptr || !e->has_data);
  EXPECT_EQ(CachedTail(ws.venus(), fid), nullptr);

  auto data = ws.ReadWholeFile("/vice/usr/alice/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, contents.Materialize());
  EXPECT_EQ(CachedTail(ws.venus(), fid), contents.tail());
}

TEST_F(VenusTest, NotCustodianRetryInstallsTheNewCustodiansBuffer) {
  Build(Unsealed(2));
  auto& ws = Login(0);
  // Venus learns where alice's volume lives and caches the status of its
  // root, but not the root's entries.
  ASSERT_TRUE(ws.venus().Stat("/usr/alice").ok());

  // After the move Venus's location hint still names server 0, so fetching
  // the root's entries is answered kNotCustodian there and resent to 1.
  ASSERT_EQ(campus_->registry().MoveVolume(alice_.volume, /*new_custodian=*/1), Status::kOk);
  const content::Ref contents = TailedContents();
  ASSERT_EQ(campus_->PopulateDirect(alice_.volume, "/g", contents), Status::kOk);
  auto data = ws.ReadWholeFile("/vice/usr/alice/g");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, contents.Materialize());
  EXPECT_EQ(FetchOutcomes(ws.venus(), Status::kNotCustodian), 1u);

  vice::Volume& moved = *campus_->server(1).FindVolume(alice_.volume);
  EXPECT_EQ(CachedTail(ws.venus(), moved.root()), moved.FetchRef(moved.root())->tail());
  EXPECT_EQ(CachedTail(ws.venus(), EntryFid(moved, "g")), contents.tail());
}

TEST_F(VenusTest, RehandshakeAfterRestartInstallsTheRetriedFetch) {
  Build(Unsealed(1));
  const content::Ref contents = TailedContents();
  ASSERT_EQ(campus_->PopulateDirect(alice_.volume, "/f", ToBytes("first")), Status::kOk);
  ASSERT_EQ(campus_->PopulateDirect(alice_.volume, "/g", contents), Status::kOk);
  auto& ws = Login(0);
  ASSERT_TRUE(ws.ReadWholeFile("/vice/usr/alice/f").ok());

  // The restart forgets every connection: g's Fetch, the first call after
  // it, fails kConnectionBroken and is resent on a fresh connection.
  campus_->CrashServer(0);
  ASSERT_TRUE(campus_->RestartServer(0, ws.clock().now()).clean());
  const uint64_t suspect_marks = ws.venus().stats().suspect_marks;
  auto data = ws.ReadWholeFile("/vice/usr/alice/g");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, contents.Materialize());
  EXPECT_GT(ws.venus().stats().suspect_marks, suspect_marks);
  EXPECT_EQ(FetchOutcomes(ws.venus(), Status::kConnectionBroken), 1u);
  const Fid g = EntryFid(*campus_->registry().FindVolume(alice_.volume), "g");
  EXPECT_EQ(CachedTail(ws.venus(), g), contents.tail());
}

// Every field of `a` and of `b` holds its own value (aggregate
// initialization fills them in declaration order), so a field operator+=
// skips, doubles or adds into another field shows.
TEST(VenusStatsTest, SumAddsEveryField) {
  VenusStats a{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  const VenusStats b{100, 200, 300, 400, 500, 600, 700, 800,
                     900, 1000, 1100, 1200, 1300, 1400, 1500};
  a += b;
  const std::vector<uint64_t> fields = {
      a.opens, a.cache_hits, a.fetches, a.stores, a.validations, a.stat_calls,
      a.bytes_fetched, a.bytes_stored, a.callback_breaks_received, a.suspect_marks,
      a.lease_grants, a.lease_renew_calls, a.leases_renewed, a.leases_rejected,
      static_cast<uint64_t>(a.open_time_total)};
  EXPECT_EQ(fields, (std::vector<uint64_t>{101, 202, 303, 404, 505, 606, 707, 808, 909,
                                           1010, 1111, 1212, 1313, 1414, 1515}));
}

}  // namespace
}  // namespace itc::venus
