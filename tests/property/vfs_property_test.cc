// Property tests for the VFS mount layer: longest-prefix resolution against
// a brute-force oracle over random mount sets, shadowing under mount
// add/remove, and the cross-mount rename invariant on real backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/path.h"
#include "src/common/rng.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/unixfs/file_system.h"
#include "src/virtue/vfs/mount_table.h"
#include "src/virtue/vfs/switch.h"
#include "src/virtue/vfs/unixfs_mount.h"

namespace itc::virtue::vfs {
namespace {

// A mount that exists only to occupy a prefix in the table.
class StubMount : public Mount {
 public:
  explicit StubMount(std::string name) : name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  bool shared() const override { return false; }

  Result<MountedOpen> Open(const std::string&, uint32_t) override {
    return Status::kNotSupported;
  }
  Status Close(uint64_t, bool) override { return Status::kNotSupported; }
  Result<Bytes> ReadAt(uint64_t, uint64_t, uint64_t) override {
    return Status::kNotSupported;
  }
  Status WriteAt(uint64_t, uint64_t, const Bytes&) override {
    return Status::kNotSupported;
  }
  Result<FileInfo> Stat(const std::string&) override { return Status::kNotSupported; }
  Result<std::vector<std::string>> List(const std::string&) override {
    return Status::kNotSupported;
  }
  Status MkDir(const std::string&) override { return Status::kNotSupported; }
  Status Remove(const std::string&) override { return Status::kNotSupported; }
  Status RmDir(const std::string&) override { return Status::kNotSupported; }
  Status Rename(const std::string&, const std::string&) override {
    return Status::kNotSupported;
  }
  Status Symlink(const std::string&, const std::string&) override {
    return Status::kNotSupported;
  }
  Result<std::string> ReadLink(const std::string&) override {
    return Status::kNotSupported;
  }
  Status Chmod(const std::string&, uint16_t) override { return Status::kNotSupported; }

 private:
  std::string name_;
};

// A root mount whose listing of every directory is `names`, in the order
// given.
class ListingMount : public StubMount {
 public:
  ListingMount() : StubMount("listing") {}
  Result<std::vector<std::string>> List(const std::string&) override { return names; }
  std::vector<std::string> names;
};

// Random path over a tiny component alphabet so collisions between mount
// prefixes and query paths are common.
std::string RandomPath(Rng& rng, size_t max_depth) {
  static const char* kComps[] = {"a", "b", "c", "ab", "vice"};
  const size_t depth = rng.Below(max_depth + 1);
  if (depth == 0) return "/";
  std::string p;
  for (size_t i = 0; i < depth; ++i) {
    p += '/';
    p += kComps[rng.Below(5)];
  }
  return p;
}

// Brute-force oracle: the longest prefix in `entries` that path-prefixes
// `path` (component boundaries), ties impossible since prefixes are unique.
const std::pair<const std::string, Mount*>* BruteForceMatch(
    const std::map<std::string, Mount*>& entries, const std::string& path) {
  const std::pair<const std::string, Mount*>* best = nullptr;
  for (const auto& e : entries) {
    if (!PathHasPrefix(path, e.first)) continue;
    if (best == nullptr || e.first.size() > best->first.size()) best = &e;
  }
  return best;
}

TEST(MountTableProperty, LongestPrefixMatchAgreesWithBruteForce) {
  Rng rng(0xf00d);
  for (int round = 0; round < 200; ++round) {
    MountTable table;
    std::vector<std::unique_ptr<StubMount>> mounts;
    const size_t n = 1 + rng.Below(6);
    for (size_t i = 0; i < n; ++i) {
      const std::string prefix = RandomPath(rng, 3);
      auto m = std::make_unique<StubMount>("stub" + std::to_string(i));
      if (table.Add(prefix, m.get()) == Status::kOk) mounts.push_back(std::move(m));
    }
    const auto entries = table.entries();
    for (int q = 0; q < 50; ++q) {
      const std::string path = RandomPath(rng, 5);
      const auto hit = table.Match(path);
      const auto* expect = BruteForceMatch(entries, path);
      if (expect == nullptr) {
        EXPECT_FALSE(hit.has_value()) << path;
      } else {
        ASSERT_TRUE(hit.has_value()) << path;
        EXPECT_EQ(hit->prefix, expect->first) << path;
        EXPECT_EQ(hit->mount, expect->second) << path;
      }
    }
  }
}

TEST(MountTableProperty, ComponentBoundaryNeverConfusesSiblingNames) {
  Rng rng(0xbeef);
  MountTable table;
  StubMount vice("vice"), root("root");
  ASSERT_EQ(table.Add("/", &root), Status::kOk);
  ASSERT_EQ(table.Add("/vice", &vice), Status::kOk);
  for (int i = 0; i < 100; ++i) {
    // Any extension of the *string* "/vice" that is not a component
    // boundary must fall through to the root mount.
    std::string path = "/vice";
    path += static_cast<char>('a' + rng.Below(26));
    path += RandomPath(rng, 2) == "/" ? "" : "/x";
    const auto hit = table.Match(path);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->mount, &root) << path;
  }
  EXPECT_EQ(table.Match("/vice")->mount, &vice);
  EXPECT_EQ(table.Match("/vice/usr")->mount, &vice);
}

TEST(MountTableProperty, ShadowingFollowsAddAndRemove) {
  MountTable table;
  StubMount root("root"), vice("vice"), deep("deep");
  ASSERT_EQ(table.Add("/", &root), Status::kOk);
  ASSERT_EQ(table.Add("/vice", &vice), Status::kOk);

  EXPECT_EQ(table.Match("/vice/pc/f")->mount, &vice);
  // A deeper mount shadows the shallower one for its subtree only.
  ASSERT_EQ(table.Add("/vice/pc", &deep), Status::kOk);
  EXPECT_EQ(table.Match("/vice/pc/f")->mount, &deep);
  EXPECT_EQ(table.Match("/vice/other")->mount, &vice);
  // Removal uncovers what was shadowed.
  ASSERT_EQ(table.Remove("/vice/pc"), Status::kOk);
  EXPECT_EQ(table.Match("/vice/pc/f")->mount, &vice);

  // Duplicate prefixes and malformed prefixes are rejected.
  EXPECT_NE(table.Add("/vice", &deep), Status::kOk);
  EXPECT_NE(table.Add("vice", &deep), Status::kOk);
  EXPECT_NE(table.Add("/vice/", &deep), Status::kOk);
  EXPECT_NE(table.Add("//vice", &deep), Status::kOk);
  EXPECT_NE(table.Add("/vice/..", &deep), Status::kOk);
}

// Rename across mounts must fail with kCrossVolume and leave both trees
// untouched — checked on real unixfs-backed mounts through the switch.
TEST(SwitchProperty, CrossMountRenameRejectedAndHarmless) {
  sim::Clock clock;
  const sim::CostModel cost = sim::CostModel::Default1985();
  unixfs::FileSystem root_fs, scratch_fs;
  Switch sw;
  auto user = [] { return UserId{1}; };
  ASSERT_EQ(sw.AddMount("/", std::make_unique<UnixfsMount>(&root_fs, &clock, cost, user,
                                                           "root")),
            Status::kOk);
  ASSERT_EQ(sw.AddMount("/scratch", std::make_unique<UnixfsMount>(&scratch_fs, &clock,
                                                                  cost, user, "scratch")),
            Status::kOk);

  ASSERT_EQ(sw.WriteWholeFile("/f", ToBytes("root side")), Status::kOk);
  ASSERT_EQ(sw.WriteWholeFile("/scratch/g", ToBytes("scratch side")), Status::kOk);

  EXPECT_EQ(sw.Rename("/f", "/scratch/f"), Status::kCrossVolume);
  EXPECT_EQ(sw.Rename("/scratch/g", "/g"), Status::kCrossVolume);

  // Same-mount renames still work on both sides.
  EXPECT_EQ(sw.Rename("/f", "/f2"), Status::kOk);
  EXPECT_EQ(sw.Rename("/scratch/g", "/scratch/g2"), Status::kOk);
  EXPECT_EQ(ToString(*sw.ReadWholeFile("/f2")), "root side");
  EXPECT_EQ(ToString(*sw.ReadWholeFile("/scratch/g2")), "scratch side");

  // A busy mount refuses removal; after closing it detaches cleanly.
  auto fd = sw.Open("/scratch/g2", kRead);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(sw.RemoveMount("/scratch"), Status::kNotEmpty);
  ASSERT_EQ(sw.Close(*fd), Status::kOk);
  EXPECT_EQ(sw.RemoveMount("/scratch"), Status::kOk);
  // With the shadowing mount gone, /scratch names fall to the root mount.
  EXPECT_EQ(sw.ReadWholeFile("/scratch/g2").status(), Status::kNotFound);
}

// A listing gains the names of the mount points in its directory, each
// once, and comes back sorted: the same list as appending the missing names
// and sorting, whether the backend listed its entries sorted or not.
TEST(SwitchProperty, ReadDirPlacesMountPointNamesAsAppendThenSortWould) {
  {
    Switch sw;
    auto root = std::make_unique<ListingMount>();
    root->names = {"a", "z"};
    ASSERT_EQ(sw.AddMount("/", std::move(root)), Status::kOk);
    ASSERT_EQ(sw.AddMount("/m", std::make_unique<StubMount>("m")), Status::kOk);
    ASSERT_EQ(sw.AddMount("/m/deeper", std::make_unique<StubMount>("deeper")), Status::kOk);
    auto names = sw.ReadDir("/");
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(*names, (std::vector<std::string>{"a", "m", "z"}));
  }

  Rng rng(0x11575);
  static const char* kNames[] = {"a", "ab", "b", "m", "vice", "z"};
  for (int round = 0; round < 300; ++round) {
    Switch sw;
    auto root = std::make_unique<ListingMount>();
    ListingMount* listing = root.get();
    ASSERT_EQ(sw.AddMount("/", std::move(root)), Status::kOk);
    for (const char* n : kNames) {
      if (rng.Chance(0.5)) listing->names.push_back(n);
    }
    if (rng.Chance(0.5)) {
      std::sort(listing->names.begin(), listing->names.end());
    } else {
      std::reverse(listing->names.begin(), listing->names.end());
    }
    std::vector<std::string> expect = listing->names;
    for (const char* n : kNames) {
      if (!rng.Chance(0.4)) continue;
      const std::string prefix = std::string("/") + n;
      ASSERT_EQ(sw.AddMount(prefix, std::make_unique<StubMount>(n)), Status::kOk);
      if (std::find(expect.begin(), expect.end(), n) == expect.end()) expect.push_back(n);
    }
    std::sort(expect.begin(), expect.end());
    auto names = sw.ReadDir("/");
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(*names, expect) << "round " << round;
  }
}

}  // namespace
}  // namespace itc::virtue::vfs
