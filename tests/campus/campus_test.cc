// Tests of the Campus deployment harness and the Vice wire helpers.

#include "src/campus/campus.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/vice/protocol.h"

namespace itc {
namespace {

using campus::Campus;
using campus::CampusConfig;

TEST(CampusConfigTest, PrototypeAndRevisedDiffer) {
  const CampusConfig proto = CampusConfig::Prototype(2, 10);
  const CampusConfig revised = CampusConfig::Revised(2, 10);
  EXPECT_EQ(proto.rpc.transport, rpc::Transport::kStream);
  EXPECT_EQ(revised.rpc.transport, rpc::Transport::kDatagram);
  EXPECT_TRUE(proto.vice.server_side_pathnames);
  EXPECT_FALSE(revised.vice.server_side_pathnames);
  EXPECT_EQ(proto.vice.validation, vice::Validation::kCheckOnOpen);
  EXPECT_EQ(revised.vice.validation, vice::Validation::kCallbacks);
  EXPECT_EQ(proto.workstation.venus.cache_limit, venus::VenusConfig::CacheLimit::kFileCount);
  EXPECT_EQ(revised.workstation.venus.cache_limit, venus::VenusConfig::CacheLimit::kSpace);
}

TEST(CampusTest, TopologyShapeMatchesConfig) {
  Campus campus(CampusConfig::Revised(3, 4));
  EXPECT_EQ(campus.server_count(), 3u);
  EXPECT_EQ(campus.workstation_count(), 12u);
  // Home servers group by cluster.
  EXPECT_EQ(campus.HomeServerOf(0), 0u);
  EXPECT_EQ(campus.HomeServerOf(3), 0u);
  EXPECT_EQ(campus.HomeServerOf(4), 1u);
  EXPECT_EQ(campus.HomeServerOf(11), 2u);
}

TEST(CampusTest, SetupCreatesUsrAndUnix) {
  Campus campus(CampusConfig::Revised(1, 1));
  auto root = campus.SetupRootVolume();
  ASSERT_TRUE(root.ok());
  vice::Volume* vol = campus.registry().FindVolume(*root);
  ASSERT_NE(vol, nullptr);
  auto entries = vice::DeserializeDirectory(*vol->FetchData(vol->root()));
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->contains("usr"));
  EXPECT_TRUE(entries->contains("unix"));
}

TEST(CampusTest, AddUserMountsHome) {
  Campus campus(CampusConfig::Revised(1, 1));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("zed", "pw", 0, 12345);
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(home->vice_path, "/usr/zed");
  vice::Volume* vol = campus.registry().FindVolume(home->volume);
  ASSERT_NE(vol, nullptr);
  EXPECT_EQ(vol->quota_bytes(), 12345u);
  // Duplicate user name fails cleanly.
  EXPECT_FALSE(campus.AddUserWithHome("zed", "pw2", 0).ok());
}

TEST(CampusTest, PopulateDirectCreatesNestedPaths) {
  Campus campus(CampusConfig::Revised(1, 1));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("deep", "pw", 0);
  ASSERT_TRUE(home.ok());
  ASSERT_EQ(campus.PopulateDirect(home->volume, "/a/b/c/file", ToBytes("nested")),
            Status::kOk);
  // Visible through a workstation.
  auto& ws = campus.workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(home->user, "pw"), Status::kOk);
  auto data = ws.ReadWholeFile("/vice/usr/deep/a/b/c/file");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "nested");
  // Overwrite replaces in place.
  ASSERT_EQ(campus.PopulateDirect(home->volume, "/a/b/c/file", ToBytes("v2")),
            Status::kOk);
  ws.venus().FlushCache();
  EXPECT_EQ(ToString(*ws.ReadWholeFile("/vice/usr/deep/a/b/c/file")), "v2");
}

// A campus of two servers with one home volume, "u", at server 0.
std::unique_ptr<Campus> MakeCampusWithHome(Campus::UserHome* home) {
  auto campus = std::make_unique<Campus>(CampusConfig::Revised(2, 1));
  EXPECT_TRUE(campus->SetupRootVolume().ok());
  auto h = campus->AddUserWithHome("u", "pw", /*custodian=*/0);
  EXPECT_TRUE(h.ok());
  *home = *h;
  return campus;
}

// A nested path, an empty file, and a file replaced later in the batch.
std::vector<Campus::DirectFile> SampleFiles() {
  std::vector<Campus::DirectFile> files;
  files.push_back({"/a", content::Ref::ForSeed(1, 3000)});
  files.push_back({"/d/e/nested", content::Ref::ForSeed(2, 5000)});
  files.push_back({"/empty", content::Ref()});
  files.push_back({"/a", content::Ref::ForSeed(3, 700)});
  return files;
}

TEST(CampusTest, PopulateBatchMatchesOneFileAtATime) {
  Campus::UserHome home1, home2;
  auto one_by_one = MakeCampusWithHome(&home1);
  auto batched = MakeCampusWithHome(&home2);
  for (Campus::DirectFile& file : SampleFiles()) {
    ASSERT_EQ(one_by_one->PopulateDirect(home1.volume, file.path, std::move(file.contents)),
              Status::kOk);
  }
  ASSERT_EQ(batched->PopulateDirect(home2.volume, SampleFiles()), Status::kOk);
  for (size_t s = 0; s < batched->server_count(); ++s) {
    EXPECT_EQ(batched->server(s).stable_store().image_bytes(),
              one_by_one->server(s).stable_store().image_bytes());
  }

  one_by_one->CrashServer(0);
  batched->CrashServer(0);
  const auto report = batched->RestartServer(0, 0);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report, one_by_one->RestartServer(0, 0));

  ASSERT_EQ(one_by_one->workstation(0).LoginWithPassword(home1.user, "pw"), Status::kOk);
  ASSERT_EQ(batched->workstation(0).LoginWithPassword(home2.user, "pw"), Status::kOk);
  const std::pair<const char*, content::Ref> expected[] = {
      {"/vice/usr/u/a", content::Ref::ForSeed(3, 700)},
      {"/vice/usr/u/d/e/nested", content::Ref::ForSeed(2, 5000)},
      {"/vice/usr/u/empty", content::Ref()},
  };
  for (const auto& [path, contents] : expected) {
    auto got = batched->workstation(0).ReadWholeFile(path);
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(*got, contents.Materialize()) << path;
    auto reference = one_by_one->workstation(0).ReadWholeFile(path);
    ASSERT_TRUE(reference.ok()) << path;
    EXPECT_EQ(*reference, *got) << path;
  }
}

TEST(CampusTest, PopulateBatchErrorKeepsFilesLoadedBeforeIt) {
  Campus::UserHome home;
  auto campus = MakeCampusWithHome(&home);
  std::vector<Campus::DirectFile> files;
  files.push_back({"/f0", content::Ref::ForSeed(1, 100)});
  files.push_back({"/f1", content::Ref::ForSeed(2, 200)});
  files.push_back({"/f0/x", content::Ref::ForSeed(3, 300)});  // runs through a file
  files.push_back({"/f3", content::Ref::ForSeed(4, 400)});
  EXPECT_EQ(campus->PopulateDirect(home.volume, std::move(files)), Status::kNotDirectory);

  // The batch checkpointed what it loaded before the error.
  campus->CrashServer(0);
  EXPECT_TRUE(campus->RestartServer(0, 0).clean());
  auto& ws = campus->workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(home.user, "pw"), Status::kOk);
  auto f0 = ws.ReadWholeFile("/vice/usr/u/f0");
  auto f1 = ws.ReadWholeFile("/vice/usr/u/f1");
  ASSERT_TRUE(f0.ok() && f1.ok());
  EXPECT_EQ(*f0, content::Ref::ForSeed(1, 100).Materialize());
  EXPECT_EQ(*f1, content::Ref::ForSeed(2, 200).Materialize());
  EXPECT_EQ(ws.ReadWholeFile("/vice/usr/u/f3").status(), Status::kNotFound);
}

// The directories a deep mount path creates in the root volume are durable:
// MountAt checkpoints the root volume after they exist.
TEST(CampusTest, DeepSystemMountSurvivesCustodianRestart) {
  Campus campus(CampusConfig::Revised(1, 2));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("r", "pw", 0);
  ASSERT_TRUE(home.ok());
  auto sys = campus.CreateSystemVolume("sys.deep", "/a/b/sys", 0);
  ASSERT_TRUE(sys.ok());
  ASSERT_EQ(campus.PopulateDirect(*sys, "/bin/cc", ToBytes("cc v1")), Status::kOk);

  campus.CrashServer(0);
  EXPECT_TRUE(campus.RestartServer(0, 0).clean());
  auto& fresh = campus.workstation(1);
  ASSERT_EQ(fresh.LoginWithPassword(home->user, "pw"), Status::kOk);
  auto data = fresh.ReadWholeFile("/vice/a/b/sys/bin/cc");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "cc v1");
}

// --- Admin checkpoints taken when first needed ----------------------------------
// ViceServer::CheckpointVolume marks a volume due and snapshots it at the
// first point that could see a difference. The image must be the one an
// eager checkpoint would have stored at the request.

const vice::Volume* HostedVolume(Campus& campus, size_t server, VolumeId vid) {
  const vice::ViceServer& s = campus.server(server);
  return s.FindVolume(vid);  // the const overload leaves the volume clock alone
}

// Entry `name` of directory `dir` in `vol`, or nullptr.
const vice::DirItem* Entry(const vice::Volume& vol, const Fid& dir, const std::string& name) {
  auto d = vol.LookupDir(dir);
  if (!d.ok()) return nullptr;
  auto it = (*d)->entries.find(name);
  return it == (*d)->entries.end() ? nullptr : &it->second;
}

TEST(CampusTest, AdminMutationsSurviveAnImmediateCrash) {
  Campus::UserHome home;
  auto campus = MakeCampusWithHome(&home);
  const VolumeId root = campus->registry().location().root_volume;
  auto restart = [&] {
    campus->CrashServer(0);
    const auto report = campus->RestartServer(0, 0);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.volumes_restored, 2u);  // the root and the home volume
  };

  auto extra = campus->registry().CreateVolume("extra", 1, home.user, {}, 0);
  ASSERT_TRUE(extra.ok());
  ASSERT_EQ(campus->registry().MountAt(vice::VolumeRootFid(root), "extra", *extra), Status::kOk);
  restart();
  const vice::DirItem* mount = Entry(*HostedVolume(*campus, 0, root), vice::VolumeRootFid(root), "extra");
  ASSERT_NE(mount, nullptr);
  EXPECT_EQ(mount->mount_volume, *extra);

  ASSERT_EQ(campus->PopulateDirect(home.volume, "/p/file", ToBytes("populated")), Status::kOk);
  restart();
  const vice::Volume* vol = HostedVolume(*campus, 0, home.volume);
  const vice::DirItem* p = Entry(*vol, vol->root(), "p");
  ASSERT_NE(p, nullptr);
  const vice::DirItem* file = Entry(*vol, p->fid, "file");
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(ToString(*vol->FetchData(file->fid)), "populated");

  ASSERT_EQ(campus->MkDirDirect(home.volume, "/m/n"), Status::kOk);
  restart();
  vol = HostedVolume(*campus, 0, home.volume);
  const vice::DirItem* m = Entry(*vol, vol->root(), "m");
  ASSERT_NE(m, nullptr);
  EXPECT_NE(Entry(*vol, m->fid, "n"), nullptr);

  ASSERT_EQ(campus->registry().SetVolumeQuota(home.volume, 1 << 20), Status::kOk);
  restart();
  EXPECT_EQ(HostedVolume(*campus, 0, home.volume)->quota_bytes(), 1u << 20);
}

// An admin checkpoint is taken before the volume's first logged intention:
// every logged store replays exactly once over it, and the restored volume
// equals the one that crashed.
TEST(CampusTest, LoggedStoresAfterAdminCheckpointReplayOnce) {
  CampusConfig config = CampusConfig::Revised(1, 1);
  config.vice.log_checkpoint_interval = 0;  // every intention stays in the log
  Campus campus(config);
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto home = campus.AddUserWithHome("u", "pw", 0);
  ASSERT_TRUE(home.ok());
  ASSERT_EQ(campus.PopulateDirect(home->volume, "/seed", ToBytes("admin")), Status::kOk);
  auto& ws = campus.workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(home->user, "pw"), Status::kOk);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(ws.WriteWholeFile("/vice/usr/u/f" + std::to_string(i % 3),
                                ToBytes("v" + std::to_string(i))),
              Status::kOk);
  }
  ASSERT_EQ(ws.WriteWholeFile("/vice/usr/u/seed", ToBytes("overwritten")), Status::kOk);

  const Bytes before = HostedVolume(campus, 0, home->volume)->Dump();
  const size_t logged = campus.server(0).stable_store().log().size();
  ASSERT_GE(logged, 7u);

  campus.CrashServer(0);
  const auto report = campus.RestartServer(0, ws.clock().now());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.intentions_replayed, logged);
  EXPECT_EQ(report.intentions_discarded, 0u);
  EXPECT_EQ(HostedVolume(campus, 0, home->volume)->Dump(), before);
}

// Read straight from the store after admin mutations, every image measures
// what an eager checkpoint at the request stored: the live volume, unchanged
// since, with the volume clock of the request.
TEST(CampusTest, StoreReadDirectlyHoldsTheRequestedImages) {
  Campus campus(CampusConfig::Revised(2, 1));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  std::vector<Campus::UserHome> homes;
  for (int i = 0; i < 4; ++i) {
    auto h = campus.AddUserWithHome("u" + std::to_string(i), "pw", i % 2);
    ASSERT_TRUE(h.ok());
    homes.push_back(*h);
  }
  ASSERT_EQ(campus.PopulateDirect(homes[0].volume, "/a/b", ToBytes("bytes")), Status::kOk);
  ASSERT_EQ(campus.MkDirDirect(homes[1].volume, "/x/y"), Status::kOk);
  ASSERT_EQ(campus.registry().SetVolumeQuota(homes[2].volume, 5000), Status::kOk);
  ASSERT_TRUE(campus.CreateSystemVolume("sys", "/unix/sys", 1).ok());

  for (size_t s = 0; s < campus.server_count(); ++s) {
    uint64_t live_bytes = 0;
    size_t hosted = 0;
    for (const auto& [vid, info] : campus.registry().location().volumes) {
      if (info.custodian != s) continue;
      live_bytes += HostedVolume(campus, s, vid)->DumpSize();
      hosted += 1;
    }
    const auto& store = campus.server(s).stable_store();
    EXPECT_EQ(store.volume_count(), hosted) << "server " << s;
    EXPECT_EQ(store.image_bytes(), live_bytes) << "server " << s;
  }

  // A later read advances the volume clock; the image keeps the clock of
  // the request, and a restart restores it.
  auto& ws = campus.workstation(0);
  ASSERT_EQ(ws.LoginWithPassword(homes[0].user, "pw"), Status::kOk);
  ASSERT_EQ(campus.PopulateDirect(homes[0].volume, "/a/c", ToBytes("more")), Status::kOk);
  const SimTime requested = HostedVolume(campus, 0, homes[0].volume)->now();
  ASSERT_TRUE(ws.ReadWholeFile("/vice/usr/u0/a/c").ok());
  ASSERT_NE(HostedVolume(campus, 0, homes[0].volume)->now(), requested);
  campus.CrashServer(0);
  EXPECT_TRUE(campus.RestartServer(0, ws.clock().now()).clean());
  EXPECT_EQ(HostedVolume(campus, 0, homes[0].volume)->now(), requested);
}

TEST(CampusTest, HistogramAggregatesAcrossServers) {
  Campus campus(CampusConfig::Revised(2, 1));
  ASSERT_TRUE(campus.SetupRootVolume().ok());
  auto a = campus.AddUserWithHome("a", "pw", 0);
  auto b = campus.AddUserWithHome("b", "pw", 1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(campus.workstation(0).LoginWithPassword(a->user, "pw"), Status::kOk);
  ASSERT_EQ(campus.workstation(1).LoginWithPassword(b->user, "pw"), Status::kOk);
  ASSERT_EQ(campus.workstation(0).WriteWholeFile("/vice/usr/a/f", ToBytes("1")),
            Status::kOk);
  ASSERT_EQ(campus.workstation(1).WriteWholeFile("/vice/usr/b/f", ToBytes("2")),
            Status::kOk);
  EXPECT_GT(campus.TotalCalls(), 0u);
  auto hist = campus.TotalCallHistogram();
  EXPECT_GE(hist[vice::CallClass::kStore], 2u);
  campus.ResetAllStats();
  EXPECT_EQ(campus.TotalCalls(), 0u);
}

// --- Wire helper round trips --------------------------------------------------

TEST(ProtocolWireTest, VnodeStatusRoundTrip) {
  vice::VnodeStatus s;
  s.fid = Fid{7, 8, 9};
  s.type = vice::VnodeType::kSymlink;
  s.length = 123456789;
  s.version = 42;
  s.mtime = Seconds(1000);
  s.owner = 77;
  s.mode = 0640;
  s.link_count = 3;
  s.parent = Fid{7, 1, 1};

  rpc::Writer w;
  vice::PutVnodeStatus(w, s);
  Bytes buf = w.Take();
  rpc::Reader r(buf);
  auto parsed = vice::ReadVnodeStatus(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, s);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ProtocolWireTest, VolumeInfoRoundTrip) {
  vice::VolumeInfo info;
  info.volume = 5;
  info.read_write_volume = 4;
  info.ro_clone = 9;
  info.read_only = true;
  info.custodian = 2;
  info.replica_sites = {0, 1, 2};

  rpc::Writer w;
  vice::PutVolumeInfo(w, info);
  Bytes buf = w.Take();
  rpc::Reader r(buf);
  auto parsed = vice::ReadVolumeInfo(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->volume, info.volume);
  EXPECT_EQ(parsed->ro_clone, info.ro_clone);
  EXPECT_EQ(parsed->replica_sites, info.replica_sites);
}

TEST(ProtocolWireTest, CallClassCoversEveryProc) {
  // Every procedure classifies without falling through to garbage.
  for (uint32_t p = 1; p <= 60; ++p) {
    const auto cls = vice::ClassOf(static_cast<vice::Proc>(p));
    EXPECT_LE(static_cast<int>(cls), static_cast<int>(vice::CallClass::kOther));
  }
  EXPECT_EQ(vice::ClassOf(vice::Proc::kValidate), vice::CallClass::kValidate);
  EXPECT_EQ(vice::ClassOf(vice::Proc::kResolvePath), vice::CallClass::kStatus);
  EXPECT_FALSE(vice::ProcName(vice::Proc::kFetch).empty());
}

}  // namespace
}  // namespace itc
