// Tests for volume administration: location database replication, volume
// moves, cloning, and read-only release.

#include "src/vice/volume_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

namespace itc::vice {
namespace {

using protection::AccessList;
using protection::Principal;

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : topo_(net::TopologyConfig{3, 1, 2}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_) {
    for (ServerId s = 0; s < 3; ++s) {
      servers_.push_back(std::make_unique<ViceServer>(
          s, topo_.NthServer(s), &network_, cost_, rpc::RpcConfig{}, ViceConfig{},
          &protection_, 50 + s));
      registry_.RegisterServer(servers_.back().get());
    }
    AccessList acl;
    acl.SetPositive(Principal::Group(protection::kAnyUserGroup), protection::kAllRights);
    acl_ = acl;
  }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  protection::ProtectionService protection_;
  VolumeRegistry registry_;
  std::vector<std::unique_ptr<ViceServer>> servers_;
  AccessList acl_;
};

TEST_F(RegistryTest, CreateVolumePlacesAtCustodianAndPublishes) {
  auto vid = registry_.CreateVolume("vol", /*custodian=*/1, 1, acl_, 0);
  ASSERT_TRUE(vid.ok());
  EXPECT_NE(servers_[1]->FindVolume(*vid), nullptr);
  EXPECT_EQ(servers_[0]->FindVolume(*vid), nullptr);
  // Every server's location snapshot knows the custodian.
  for (const auto& s : servers_) {
    auto info = s->location()->Find(*vid);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->custodian, 1u);
  }
}

TEST_F(RegistryTest, MoveVolumeUpdatesEveryReplica) {
  auto vid = *registry_.CreateVolume("mv", 0, 1, acl_, 0);
  Volume* vol = registry_.FindVolume(vid);
  ASSERT_TRUE(vol->CreateFile(vol->root(), "f", 1, 0644).ok());

  ASSERT_EQ(registry_.MoveVolume(vid, 2), Status::kOk);
  EXPECT_EQ(servers_[0]->FindVolume(vid), nullptr);
  ASSERT_NE(servers_[2]->FindVolume(vid), nullptr);
  // Contents moved intact.
  auto data = servers_[2]->FindVolume(vid)->FetchData(VolumeRootFid(vid));
  ASSERT_TRUE(data.ok());
  for (const auto& s : servers_) {
    EXPECT_EQ(s->location()->Find(vid)->custodian, 2u);
  }
}

TEST_F(RegistryTest, MoveToSameServerIsNoop) {
  auto vid = *registry_.CreateVolume("same", 0, 1, acl_, 0);
  EXPECT_EQ(registry_.MoveVolume(vid, 0), Status::kOk);
  EXPECT_NE(servers_[0]->FindVolume(vid), nullptr);
}

TEST_F(RegistryTest, CloneRegistersReadOnlyEntry) {
  auto vid = *registry_.CreateVolume("src", 0, 1, acl_, 0);
  auto clone = registry_.CloneVolume(vid, "src.clone");
  ASSERT_TRUE(clone.ok());
  auto info = servers_[1]->location()->Find(*clone);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->read_only);
  EXPECT_EQ(info->read_write_volume, vid);
  EXPECT_NE(servers_[0]->FindVolume(*clone), nullptr);
  // Cloning a read-only volume is refused.
  EXPECT_EQ(registry_.CloneVolume(*clone, "x").status(), Status::kVolumeReadOnly);
}

TEST_F(RegistryTest, ReleaseReadOnlyInstallsReplicasEverywhere) {
  auto vid = *registry_.CreateVolume("sys", 0, 1, acl_, 0);
  Volume* vol = registry_.FindVolume(vid);
  auto fid = *vol->CreateFile(vol->root(), "binary", 1, 0644);
  ASSERT_EQ(vol->StoreData(fid, ToBytes("v1")), Status::kOk);

  auto ro = registry_.ReleaseReadOnly(vid, "sys.readonly", {0, 1, 2});
  ASSERT_TRUE(ro.ok());
  for (const auto& s : servers_) {
    Volume* replica = s->FindVolume(*ro);
    ASSERT_NE(replica, nullptr);
    EXPECT_TRUE(replica->read_only());
    EXPECT_EQ(ToString(*replica->FetchData(Fid{*ro, fid.vnode, fid.uniquifier})), "v1");
  }
  // The RW entry advertises the clone.
  auto info = servers_[0]->location()->Find(vid);
  EXPECT_EQ(info->ro_clone, *ro);
  auto clone_info = servers_[0]->location()->Find(*ro);
  EXPECT_EQ(clone_info->replica_sites.size(), 3u);
}

TEST_F(RegistryTest, SecondReleaseSupersedesFirst) {
  auto vid = *registry_.CreateVolume("sys2", 0, 1, acl_, 0);
  Volume* vol = registry_.FindVolume(vid);
  auto fid = *vol->CreateFile(vol->root(), "bin", 1, 0644);
  ASSERT_EQ(vol->StoreData(fid, ToBytes("v1")), Status::kOk);

  auto ro1 = *registry_.ReleaseReadOnly(vid, "sys2.ro1", {0, 1});
  ASSERT_EQ(vol->StoreData(fid, ToBytes("v2")), Status::kOk);
  auto ro2 = *registry_.ReleaseReadOnly(vid, "sys2.ro2", {0, 1});

  EXPECT_NE(ro1, ro2);
  EXPECT_EQ(servers_[0]->location()->Find(vid)->ro_clone, ro2);
  // "Multiple coexisting versions ... represented by their respective
  // read-only subtrees": the old clone is still served, frozen at v1.
  EXPECT_EQ(ToString(*servers_[0]
                          ->FindVolume(ro1)
                          ->FetchData(Fid{ro1, fid.vnode, fid.uniquifier})),
            "v1");
  EXPECT_EQ(ToString(*servers_[0]
                          ->FindVolume(ro2)
                          ->FetchData(Fid{ro2, fid.vnode, fid.uniquifier})),
            "v2");
}

TEST_F(RegistryTest, ReleaseToAnUnknownSiteChangesNothing) {
  auto vid = *registry_.CreateVolume("sys3", 0, 1, acl_, 0);
  std::vector<size_t> volumes, images;
  for (const auto& s : servers_) {
    volumes.push_back(s->volume_count());
    images.push_back(s->stable_store().volume_count());
  }

  EXPECT_EQ(registry_.ReleaseReadOnly(vid, "sys3.ro", {0, 99}).status(), Status::kNotFound);
  // No orphan clone at site 0, in memory or in its checkpoint images.
  for (size_t i = 0; i < servers_.size(); ++i) {
    EXPECT_EQ(servers_[i]->volume_count(), volumes[i]);
    EXPECT_EQ(servers_[i]->stable_store().volume_count(), images[i]);
  }
  EXPECT_EQ(servers_[0]->location()->Find(vid)->ro_clone, kInvalidVolume);
  // The refused release spent no volume id.
  EXPECT_EQ(*registry_.CreateVolume("next", 0, 1, acl_, 0), vid + 1);
}

// A copy of the location database is an immutable view of its version: the
// volume map shares structure with later versions (src/common/shared_map.h),
// and no later change may write into a shared entry.
TEST_F(RegistryTest, LocationCopyUnchangedByLaterChanges) {
  std::vector<VolumeId> vids;
  for (int i = 0; i < 20; ++i) {
    vids.push_back(*registry_.CreateVolume("v" + std::to_string(i), static_cast<ServerId>(i % 3),
                                         1, acl_, 0));
  }
  const VolumeId moved = vids[7];
  const VolumeId released = vids[12];
  using Entry = std::tuple<VolumeId, VolumeId, VolumeId, VolumeId, bool, ServerId,
                           std::vector<ServerId>>;
  auto entries = [](const LocationDb& db) {
    std::vector<Entry> out;
    for (const auto& [vid, info] : db.volumes) {
      out.emplace_back(vid, info.volume, info.read_write_volume, info.ro_clone, info.read_only,
                       info.custodian, info.replica_sites);
    }
    return out;
  };
  const LocationDb before = registry_.location();
  const std::vector<Entry> expected = entries(before);
  ASSERT_EQ(expected.size(), vids.size());

  const VolumeId created = *registry_.CreateVolume("late", 2, 1, acl_, 0);
  ASSERT_EQ(registry_.MoveVolume(moved, 2), Status::kOk);
  const VolumeId ro = *registry_.ReleaseReadOnly(released, "rel.ro", {0, 1, 2});

  EXPECT_EQ(entries(before), expected);
  EXPECT_FALSE(before.volumes.contains(created));
  EXPECT_FALSE(before.volumes.contains(ro));
  EXPECT_EQ(before.Find(moved)->custodian, 1u);
  EXPECT_EQ(before.Find(released)->ro_clone, kInvalidVolume);
  // The master (and every server's snapshot) moved on.
  EXPECT_EQ(registry_.location().volumes.size(), vids.size() + 2);
  for (const auto& s : servers_) {
    EXPECT_EQ(s->location()->Find(moved)->custodian, 2u);
    EXPECT_EQ(s->location()->Find(released)->ro_clone, ro);
    EXPECT_TRUE(s->location()->volumes.contains(created));
  }
}

TEST_F(RegistryTest, RootVolumeTracked) {
  auto vid = *registry_.CreateVolume("root", 0, 1, acl_, 0);
  ASSERT_EQ(registry_.SetRootVolume(vid), Status::kOk);
  for (const auto& s : servers_) EXPECT_EQ(s->location()->root_volume, vid);
  EXPECT_EQ(registry_.SetRootVolume(9999), Status::kNotFound);
}

TEST_F(RegistryTest, QuotaAndOnlineAdministration) {
  auto vid = *registry_.CreateVolume("q", 0, 1, acl_, 0);
  ASSERT_EQ(registry_.SetVolumeQuota(vid, 1024), Status::kOk);
  Volume* vol = registry_.FindVolume(vid);
  EXPECT_EQ(vol->quota_bytes(), 1024u);
  ASSERT_EQ(registry_.SetVolumeOnline(vid, false), Status::kOk);
  EXPECT_EQ(vol->GetStatus(vol->root()).status(), Status::kVolumeOffline);
  ASSERT_EQ(registry_.SetVolumeOnline(vid, true), Status::kOk);
}

TEST_F(RegistryTest, SalvageThroughRegistry) {
  auto vid = *registry_.CreateVolume("s", 0, 1, acl_, 0);
  Volume* vol = registry_.FindVolume(vid);
  ASSERT_TRUE(vol->CreateFile(vol->root(), "f", 1, 0644).ok());
  auto report = registry_.SalvageVolume(vid);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
}

TEST_F(RegistryTest, MountAtAddsMountPoint) {
  auto parent = *registry_.CreateVolume("p", 0, 1, acl_, 0);
  auto child = *registry_.CreateVolume("c", 1, 1, acl_, 0);
  ASSERT_EQ(registry_.MountAt(VolumeRootFid(parent), "child", child), Status::kOk);
  auto data = registry_.FindVolume(parent)->FetchData(VolumeRootFid(parent));
  auto entries = DeserializeDirectory(*data);
  EXPECT_EQ(entries->at("child").kind, DirItem::Kind::kMountPoint);
  EXPECT_EQ(entries->at("child").mount_volume, child);
  // Mounting an unknown volume fails.
  EXPECT_EQ(registry_.MountAt(VolumeRootFid(parent), "x", 777), Status::kNotFound);
}

}  // namespace
}  // namespace itc::vice
