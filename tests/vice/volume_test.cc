// Unit tests for Vice volumes: vnode lifecycle, quota, stale fids, rename
// fid-invariance, clone copy-on-write, salvage, and the per-version buffer
// a directory fetch serves.

#include "src/vice/volume.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/rpc/wire.h"
#include "src/vice/protocol.h"

namespace itc::vice {
namespace {

using protection::AccessList;
using protection::Principal;

AccessList OwnerAcl(UserId owner) {
  AccessList acl;
  acl.SetPositive(Principal::User(owner), protection::kAllRights);
  return acl;
}

class VolumeTest : public ::testing::Test {
 protected:
  static constexpr UserId kOwner = 7;
  VolumeTest() : vol_(1, "test", VolumeType::kReadWrite, kOwner, OwnerAcl(kOwner), 0) {}

  Volume vol_;
};

TEST_F(VolumeTest, RootExistsWithConventionalFid) {
  auto st = vol_.GetStatus(vol_.root());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->fid, (Fid{1, 1, 1}));
  EXPECT_EQ(st->type, VnodeType::kDirectory);
  EXPECT_FALSE(st->parent.valid());
}

TEST_F(VolumeTest, CreateFetchStoreCycle) {
  auto fid = vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_TRUE(fid.ok());
  EXPECT_TRUE(vol_.FetchData(*fid)->empty());

  ASSERT_EQ(vol_.StoreData(*fid, ToBytes("payload")), Status::kOk);
  EXPECT_EQ(ToString(*vol_.FetchData(*fid)), "payload");

  auto st = vol_.GetStatus(*fid);
  EXPECT_EQ(st->length, 7u);
  EXPECT_EQ(st->version, 2u);  // 1 at create, +1 per store
  EXPECT_EQ(st->parent, vol_.root());
}

TEST_F(VolumeTest, VersionBumpsOnEveryMutation) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  const uint64_t v1 = vol_.GetStatus(*&fid)->version;
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("a")), Status::kOk);
  const uint64_t v2 = vol_.GetStatus(fid)->version;
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("b")), Status::kOk);
  const uint64_t v3 = vol_.GetStatus(fid)->version;
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
}

TEST_F(VolumeTest, DirectoryDataIsInterpretable) {
  ASSERT_TRUE(vol_.CreateFile(vol_.root(), "a", kOwner, 0644).ok());
  ASSERT_TRUE(vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner)).ok());
  ASSERT_TRUE(vol_.MakeSymlink(vol_.root(), "s", "a", kOwner).ok());
  ASSERT_EQ(vol_.MakeMountPoint(vol_.root(), "m", 99), Status::kOk);

  auto data = vol_.FetchData(vol_.root());
  ASSERT_TRUE(data.ok());
  auto entries = DeserializeDirectory(*data);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 4u);
  EXPECT_EQ(entries->at("a").kind, DirItem::Kind::kFile);
  EXPECT_EQ(entries->at("d").kind, DirItem::Kind::kDirectory);
  EXPECT_EQ(entries->at("s").kind, DirItem::Kind::kSymlink);
  EXPECT_EQ(entries->at("m").kind, DirItem::Kind::kMountPoint);
  EXPECT_EQ(entries->at("m").mount_volume, 99u);
}

TEST_F(VolumeTest, StaleFidAfterRemove) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.RemoveFile(vol_.root(), "f"), Status::kOk);
  EXPECT_EQ(vol_.FetchData(fid).status(), Status::kStaleFid);
  EXPECT_EQ(vol_.GetStatus(fid).status(), Status::kStaleFid);
  // A recreated file with the same name gets a fresh fid.
  auto fid2 = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  EXPECT_NE(fid, fid2);
}

TEST_F(VolumeTest, WrongUniquifierIsStale) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  Fid forged = fid;
  forged.uniquifier += 1;
  EXPECT_EQ(vol_.GetStatus(forged).status(), Status::kStaleFid);
}

TEST_F(VolumeTest, RenamePreservesFidAndData) {
  // "File identifiers will remain invariant across renames" (Section 5.3).
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("keep me")), Status::kOk);
  const uint64_t version = vol_.GetStatus(fid)->version;

  ASSERT_EQ(vol_.Rename(vol_.root(), "f", dir, "g"), Status::kOk);
  auto st = vol_.GetStatus(fid);
  ASSERT_TRUE(st.ok());  // fid still valid
  EXPECT_EQ(st->parent, dir);
  EXPECT_EQ(st->version, version);  // data untouched
  EXPECT_EQ(ToString(*vol_.FetchData(fid)), "keep me");
}

TEST_F(VolumeTest, RenameDirectorySubtree) {
  auto d1 = *vol_.MakeDir(vol_.root(), "d1", kOwner, OwnerAcl(kOwner));
  auto d2 = *vol_.MakeDir(vol_.root(), "d2", kOwner, OwnerAcl(kOwner));
  auto inner = *vol_.MakeDir(d1, "inner", kOwner, OwnerAcl(kOwner));
  ASSERT_TRUE(vol_.CreateFile(inner, "deep", kOwner, 0644).ok());

  // Move d1 under d2 ("allowing us to support renaming of arbitrary
  // subtrees", Section 5.3).
  ASSERT_EQ(vol_.Rename(vol_.root(), "d1", d2, "moved"), Status::kOk);
  EXPECT_EQ(vol_.GetStatus(d1)->parent, d2);
  EXPECT_TRUE(vol_.GetStatus(inner).ok());

  // Cycle prevention: cannot move d2 into the subtree now under it.
  EXPECT_EQ(vol_.Rename(vol_.root(), "d2", inner, "oops"), Status::kInvalidArgument);
}

TEST_F(VolumeTest, QuotaEnforced) {
  Volume small(2, "small", VolumeType::kReadWrite, kOwner, OwnerAcl(kOwner),
               /*quota_bytes=*/4096);
  auto fid = *small.CreateFile(small.root(), "f", kOwner, 0644);
  EXPECT_EQ(small.StoreData(fid, Bytes(8192, 'x')), Status::kQuotaExceeded);
  EXPECT_EQ(small.StoreData(fid, Bytes(1024, 'x')), Status::kOk);
  // Shrinking then growing within quota is fine.
  EXPECT_EQ(small.StoreData(fid, Bytes(2048, 'x')), Status::kOk);
  EXPECT_GT(small.usage_bytes(), 2048u);
}

TEST_F(VolumeTest, QuotaFreedOnRemove) {
  Volume small(3, "small", VolumeType::kReadWrite, kOwner, OwnerAcl(kOwner), 8192);
  auto fid = *small.CreateFile(small.root(), "f", kOwner, 0644);
  ASSERT_EQ(small.StoreData(fid, Bytes(4096, 'x')), Status::kOk);
  const uint64_t used = small.usage_bytes();
  ASSERT_EQ(small.RemoveFile(small.root(), "f"), Status::kOk);
  EXPECT_LT(small.usage_bytes(), used - 4000);
}

TEST_F(VolumeTest, ReadOnlyVolumeRejectsMutation) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("v1")), Status::kOk);
  auto clone = vol_.Clone(50, "test.readonly");

  const Fid clone_fid{50, fid.vnode, fid.uniquifier};
  EXPECT_EQ(clone->StoreData(clone_fid, ToBytes("nope")), Status::kVolumeReadOnly);
  EXPECT_EQ(clone->CreateFile(clone->root(), "new", kOwner, 0644).status(),
            Status::kVolumeReadOnly);
  EXPECT_EQ(clone->RemoveFile(clone->root(), "f"), Status::kVolumeReadOnly);
  EXPECT_EQ(clone->SetMode(clone_fid, 0600), Status::kVolumeReadOnly);
}

TEST_F(VolumeTest, CloneIsFrozenSnapshotSharingData) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("frozen")), Status::kOk);

  auto clone = vol_.Clone(60, "clone");
  const Fid clone_fid{60, fid.vnode, fid.uniquifier};

  // Clone sees the data under its own volume id.
  EXPECT_EQ(ToString(*clone->FetchData(clone_fid)), "frozen");
  EXPECT_EQ(clone->GetStatus(clone_fid)->fid.volume, 60u);

  // Writing the original (copy-on-write) does not disturb the clone.
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("thawed")), Status::kOk);
  EXPECT_EQ(ToString(*clone->FetchData(clone_fid)), "frozen");
  EXPECT_EQ(ToString(*vol_.FetchData(fid)), "thawed");
}

TEST_F(VolumeTest, CloneRebrandsDirectoryEntries) {
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  ASSERT_TRUE(vol_.CreateFile(dir, "f", kOwner, 0644).ok());
  auto clone = vol_.Clone(70, "clone");
  auto entries = DeserializeDirectory(*clone->FetchData(clone->root()));
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->at("d").fid.volume, 70u);
}

TEST_F(VolumeTest, SnapshotIsExactAndSharesDataCopyOnWrite) {
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  auto fid = *vol_.CreateFile(dir, "f", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("checkpointed")), Status::kOk);

  auto snap = vol_.Snapshot();

  // Unlike Clone, a snapshot preserves identity exactly: same id, name,
  // type, fids, and counters — its dump is byte-identical to the source's.
  EXPECT_EQ(snap->id(), vol_.id());
  EXPECT_EQ(snap->name(), vol_.name());
  EXPECT_EQ(snap->type(), VolumeType::kReadWrite);
  EXPECT_EQ(snap->usage_bytes(), vol_.usage_bytes());
  EXPECT_EQ(snap->Dump(), vol_.Dump());

  // Later mutation of the source leaves the snapshot frozen.
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("mutated since")), Status::kOk);
  ASSERT_TRUE(vol_.CreateFile(dir, "g", kOwner, 0644).ok());
  EXPECT_EQ(ToString(*snap->FetchData(fid)), "checkpointed");
  EXPECT_EQ(ToString(*vol_.FetchData(fid)), "mutated since");
}

TEST_F(VolumeTest, DumpSizeMatchesDumpExactly) {
  // DumpSize is the checkpoint disk-charge accounting: it must track the
  // real serialized size through every kind of state.
  EXPECT_EQ(vol_.DumpSize(), vol_.Dump().size());

  auto dir = *vol_.MakeDir(vol_.root(), "subdir", kOwner, OwnerAcl(kOwner));
  auto fid = *vol_.CreateFile(dir, "file.c", kOwner, 0644);
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("int main(void) { return 0; }")), Status::kOk);
  ASSERT_TRUE(vol_.MakeSymlink(dir, "link", "/vice/usr/elsewhere", kOwner).ok());
  EXPECT_EQ(vol_.DumpSize(), vol_.Dump().size());

  ASSERT_EQ(vol_.RemoveFile(dir, "file.c"), Status::kOk);
  EXPECT_EQ(vol_.DumpSize(), vol_.Dump().size());
}

TEST_F(VolumeTest, OfflineVolumeUnavailable) {
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  vol_.set_online(false);
  EXPECT_EQ(vol_.FetchData(fid).status(), Status::kVolumeOffline);
  vol_.set_online(true);
  EXPECT_TRUE(vol_.FetchData(fid).ok());
}

TEST_F(VolumeTest, EffectiveAclOfFileIsParentDirs) {
  // "The protected entities are directories, and all files within a
  //  directory have the same protection status."
  AccessList dir_acl;
  dir_acl.SetPositive(Principal::User(99), protection::kRead);
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, dir_acl);
  auto fid = *vol_.CreateFile(dir, "f", kOwner, 0644);
  auto acl = vol_.EffectiveAcl(fid);
  ASSERT_TRUE(acl.ok());
  EXPECT_EQ(**acl, dir_acl);
}

TEST_F(VolumeTest, SalvageCleanVolumeReportsClean) {
  ASSERT_TRUE(vol_.CreateFile(vol_.root(), "f", kOwner, 0644).ok());
  auto report = vol_.Salvage();
  EXPECT_TRUE(report.clean());
}

TEST_F(VolumeTest, RemoveEmptyDirOnly) {
  auto dir = *vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner));
  ASSERT_TRUE(vol_.CreateFile(dir, "f", kOwner, 0644).ok());
  EXPECT_EQ(vol_.RemoveDir(vol_.root(), "d"), Status::kNotEmpty);
  ASSERT_EQ(vol_.RemoveFile(dir, "f"), Status::kOk);
  EXPECT_EQ(vol_.RemoveDir(vol_.root(), "d"), Status::kOk);
}

// Every directory reachable from the root, root first.
std::vector<Fid> Directories(const Volume& vol) {
  std::vector<Fid> out{vol.root()};
  for (size_t i = 0; i < out.size(); ++i) {
    for (const auto& [name, item] : (*vol.LookupDir(out[i]))->entries) {
      if (item.kind == DirItem::Kind::kDirectory) out.push_back(item.fid);
    }
  }
  return out;
}

// Each directory's length and served bytes against its live entries,
// directories untouched since they were made included.
void ExpectDirectoriesMatchEntries(const Volume& vol) {
  for (const Fid& dir : Directories(vol)) {
    const Volume::Vnode* v = *vol.LookupDir(dir);
    const Bytes serialized = SerializeDirectory(v->entries);
    EXPECT_EQ(vol.FetchRef(dir)->Materialize(), serialized) << dir.ToString();
    EXPECT_EQ(v->status.length, serialized.size()) << dir.ToString();
  }
}

// The dump of a volume whose root lists "ghost", a file no vnode backs:
// the damage Salvage repairs. No volume operation leaves such an entry, so
// this writes Volume::Dump's layout field by field.
Bytes DumpWithDanglingEntry(VolumeId id, UserId owner) {
  const DirMap entries{{"ghost", DirItem{DirItem::Kind::kFile, Fid{id, 2, 2}, kInvalidVolume}}};
  VnodeStatus root;
  root.fid = VolumeRootFid(id);
  root.type = VnodeType::kDirectory;
  root.mode = 0755;
  root.owner = owner;
  root.version = 2;
  root.length = SerializeDirectory(entries).size();
  rpc::Writer w;
  w.PutU32(0x56444d50);  // "VDMP"
  w.PutU32(1);           // dump format version
  w.PutU32(id);
  w.PutString("damaged");
  w.PutU8(static_cast<uint8_t>(VolumeType::kReadWrite));
  w.PutU64(0);  // quota
  w.PutU32(3);  // next vnode
  w.PutU32(3);  // next uniquifier
  w.PutU32(1);  // one vnode record: the root
  w.PutU32(1);
  PutVnodeStatus(w, root);
  w.PutBool(false);
  w.PutBytes(SerializeDirectory(entries));
  w.PutBytes(OwnerAcl(owner).Serialize());
  return w.Take();
}

TEST_F(VolumeTest, DirectoryBufferIsBuiltOncePerVersion) {
  auto sub = vol_.MakeDir(vol_.root(), "sub", kOwner, OwnerAcl(kOwner));
  ASSERT_TRUE(sub.ok());
  const Fid root = vol_.root();
  // Each step changes the root's entries (and, for the cross-directory
  // rename, sub's too). The fetch after it serves the live entries from a
  // new buffer, and fetching again without a change hands out that buffer.
  const std::vector<std::function<Status()>> steps = {
      [&] { return vol_.CreateFile(root, "f", kOwner, 0644).status(); },
      [&] { return vol_.MakeDir(root, "d", kOwner, OwnerAcl(kOwner)).status(); },
      [&] { return vol_.MakeSymlink(root, "s", "f", kOwner).status(); },
      [&] { return vol_.MakeMountPoint(root, "m", 99); },
      [&] { return vol_.Rename(root, "f", root, "g"); },
      [&] { return vol_.Rename(root, "g", *sub, "g"); },
      [&] { return vol_.RemoveFile(root, "s"); },
      [&] { return vol_.RemoveFile(root, "m"); },
      [&] { return vol_.RemoveDir(root, "d"); },
  };
  auto buffer_of = [&](const Fid& dir) { return vol_.FetchRef(dir)->tail(); };
  for (size_t i = 0; i < steps.size(); ++i) {
    const auto before = buffer_of(root);
    const auto sub_before = buffer_of(*sub);
    ASSERT_EQ(steps[i](), Status::kOk) << "step " << i;
    const auto after = buffer_of(root);
    EXPECT_NE(after, before) << "step " << i;
    EXPECT_EQ(buffer_of(root), after) << "step " << i;
    EXPECT_EQ(buffer_of(*sub) != sub_before, i == 5) << "step " << i;
    ExpectDirectoriesMatchEntries(vol_);
  }
}

TEST_F(VolumeTest, SalvagedDanglingEntryGetsANewBuffer) {
  auto vol = Volume::Restore(DumpWithDanglingEntry(3, kOwner), 3, "damaged",
                             VolumeType::kReadWrite);
  ASSERT_TRUE(vol.ok());
  const auto damaged = (*vol)->FetchRef((*vol)->root())->tail();
  ASSERT_TRUE(DirIndex(damaged).Find("ghost").ok());
  const uint64_t version = (*vol)->GetStatus((*vol)->root())->version;

  const Volume::SalvageReport report = (*vol)->Salvage();
  EXPECT_EQ(report.dangling_entries_removed, 1u);
  EXPECT_EQ(report.dir_lengths_corrected, 1u);  // the root lost "ghost"
  // Salvage dropped the entry without bumping the version, and the fetch
  // still serves the live entries.
  EXPECT_EQ((*vol)->GetStatus((*vol)->root())->version, version);
  const auto repaired = (*vol)->FetchRef((*vol)->root())->tail();
  EXPECT_NE(repaired, damaged);
  EXPECT_EQ(DirIndex(repaired).Find("ghost").status(), Status::kNotFound);
  ExpectDirectoriesMatchEntries(**vol);
}

// A directory nothing was ever added to already has its serialized length,
// the empty 4-byte count, so salvage finds nothing to rewrite.
TEST_F(VolumeTest, UntouchedDirectoriesNeedNoSalvage) {
  Volume fresh(2, "fresh", VolumeType::kReadWrite, kOwner, OwnerAcl(kOwner), 0);
  EXPECT_TRUE(fresh.Salvage().clean());
  ASSERT_TRUE(vol_.MakeDir(vol_.root(), "d", kOwner, OwnerAcl(kOwner)).ok());
  const Bytes before = vol_.Dump();
  EXPECT_TRUE(vol_.Salvage().clean());
  EXPECT_EQ(vol_.Dump(), before);
  ExpectDirectoriesMatchEntries(vol_);
}

// Directory lengths move by one entry's serialized size per operation; a
// seeded churn of every directory operation, on a volume that also carries
// a dangling entry until Salvage drops it, must keep each length equal to
// the full serialization.
TEST_F(VolumeTest, DirectoryLengthTracksEntriesThroughSeededChurn) {
  auto restored = Volume::Restore(DumpWithDanglingEntry(3, kOwner), 3, "damaged",
                                  VolumeType::kReadWrite);
  ASSERT_TRUE(restored.ok());
  Volume& vol = **restored;
  Rng rng(17);
  std::vector<Fid> dirs{vol.root()};  // removed ones stay: their ops fail
  auto pick_name = [&] { return "n" + std::to_string(rng.Below(10)); };
  for (int step = 0; step < 600; ++step) {
    const Fid dir = dirs[rng.Below(dirs.size())];
    const std::string name = pick_name();
    switch (rng.Below(7)) {
      case 0:
        (void)vol.CreateFile(dir, name, kOwner, 0644);
        break;
      case 1:
        if (auto made = vol.MakeDir(dir, name, kOwner, OwnerAcl(kOwner)); made.ok()) {
          dirs.push_back(*made);
        }
        break;
      case 2:
        (void)vol.MakeSymlink(dir, name, "target", kOwner);
        break;
      case 3:
        (void)vol.MakeMountPoint(dir, name, 99);
        break;
      case 4:
        (void)vol.RemoveFile(dir, name);
        break;
      case 5:
        (void)vol.RemoveDir(dir, name);
        break;
      default:
        (void)vol.Rename(dir, name, dirs[rng.Below(dirs.size())], pick_name());
        break;
    }
    ExpectDirectoriesMatchEntries(vol);
  }
  EXPECT_GT(Directories(vol).size(), 3u);
  EXPECT_EQ(vol.Salvage().dangling_entries_removed, 1u);
  ExpectDirectoriesMatchEntries(vol);
}

TEST_F(VolumeTest, MTimeFromVirtualClock) {
  vol_.set_now(Seconds(100));
  auto fid = *vol_.CreateFile(vol_.root(), "f", kOwner, 0644);
  EXPECT_EQ(vol_.GetStatus(fid)->mtime, Seconds(100));
  vol_.set_now(Seconds(200));
  ASSERT_EQ(vol_.StoreData(fid, ToBytes("x")), Status::kOk);
  EXPECT_EQ(vol_.GetStatus(fid)->mtime, Seconds(200));
}

}  // namespace
}  // namespace itc::vice
