// Unit tests for Venus's whole-file cache: status/data entries, LRU
// eviction under both limit policies, and pinning.

#include "src/venus/file_cache.h"

#include <gtest/gtest.h>

namespace itc::venus {
namespace {

vice::VnodeStatus StatusFor(const Fid& fid, uint64_t length) {
  vice::VnodeStatus s;
  s.fid = fid;
  s.length = length;
  s.version = 1;
  return s;
}

class FileCacheTest : public ::testing::Test {
 protected:
  FileCache MakeCache(VenusConfig::CacheLimit policy, uint64_t max_bytes,
                      uint32_t max_files) {
    VenusConfig config;
    config.cache_limit = policy;
    config.max_cache_bytes = max_bytes;
    config.max_cache_files = max_files;
    return FileCache(&fs_, "/cache", config);
  }

  unixfs::FileSystem fs_;
};

TEST_F(FileCacheTest, InstallAndRead) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  const Fid fid{1, 2, 3};
  cache.InstallData(fid, StatusFor(fid, 5), content::Ref::Inline(ToBytes("hello")));
  auto data = cache.ReadData(fid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "hello");
  EXPECT_EQ(cache.data_bytes(), 5u);
  EXPECT_EQ(cache.data_entry_count(), 1u);
  // The cached copy is a real local file.
  EXPECT_TRUE(fs_.Stat("/cache/1.2.3").ok());
}

TEST_F(FileCacheTest, StatusOnlyEntryHasNoData) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  const Fid fid{1, 2, 3};
  cache.PutStatus(fid, StatusFor(fid, 10));
  EXPECT_NE(cache.Find(fid), nullptr);
  EXPECT_FALSE(cache.Find(fid)->has_data);
  EXPECT_EQ(cache.ReadData(fid).status(), Status::kNotFound);
}

TEST_F(FileCacheTest, ReinstallReplacesBytes) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  const Fid fid{1, 2, 3};
  cache.InstallData(fid, StatusFor(fid, 4), content::Ref::Inline(ToBytes("long contents")));
  cache.InstallData(fid, StatusFor(fid, 4), content::Ref::Inline(ToBytes("tiny")));
  EXPECT_EQ(cache.data_bytes(), 4u);
  EXPECT_EQ(ToString(*cache.ReadData(fid)), "tiny");
}

TEST_F(FileCacheTest, InvalidateKeepsDataForRevalidation) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  const Fid fid{1, 2, 3};
  cache.InstallData(fid, StatusFor(fid, 1), content::Ref::Inline(ToBytes("x")));
  cache.Invalidate(fid);
  EXPECT_FALSE(cache.Find(fid)->valid);
  EXPECT_TRUE(cache.Find(fid)->has_data);
  EXPECT_TRUE(cache.ReadData(fid).ok());
}

TEST_F(FileCacheTest, EraseRemovesLocalFile) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  const Fid fid{1, 2, 3};
  cache.InstallData(fid, StatusFor(fid, 3), content::Ref::Inline(ToBytes("xyz")));
  cache.Erase(fid);
  EXPECT_EQ(cache.Find(fid), nullptr);
  EXPECT_EQ(cache.data_bytes(), 0u);
  EXPECT_FALSE(fs_.Stat("/cache/1.2.3").ok());
}

TEST_F(FileCacheTest, SpaceLimitEvictsLru) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, /*max_bytes=*/1000, 100);
  for (uint32_t i = 0; i < 4; ++i) {
    const Fid fid{1, i + 10, 1};
    cache.InstallData(fid, StatusFor(fid, 300), content::Ref::Inline(Bytes(300, 'a')));
    cache.Touch(fid, i * 100);
  }
  // 1200 bytes cached; LRU (vnode 10) must go.
  auto evicted = cache.EnforceLimits();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].vnode, 10u);
  EXPECT_LE(cache.data_bytes(), 1000u);
}

TEST_F(FileCacheTest, FileCountLimitIgnoresBytes) {
  // The prototype's policy: count files, not bytes (Section 3.5.1) — so a
  // few huge files can blow past any byte budget without eviction.
  auto cache = MakeCache(VenusConfig::CacheLimit::kFileCount, /*max_bytes=*/1000,
                         /*max_files=*/3);
  for (uint32_t i = 0; i < 3; ++i) {
    const Fid fid{1, i + 10, 1};
    cache.InstallData(fid, StatusFor(fid, 5000), content::Ref::Inline(Bytes(5000, 'b')));
    cache.Touch(fid, i);
  }
  EXPECT_TRUE(cache.EnforceLimits().empty());  // 15000 bytes, but only 3 files
  const Fid fid{1, 99, 1};
  cache.InstallData(fid, StatusFor(fid, 10), content::Ref::Inline(Bytes(10, 'c')));
  cache.Touch(fid, 100);
  auto evicted = cache.EnforceLimits();
  EXPECT_EQ(evicted.size(), 1u);  // over the file count now
}

TEST_F(FileCacheTest, PinnedEntriesAreNotEvicted) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kFileCount, 1 << 20, /*max_files=*/1);
  const Fid pinned{1, 1, 1};
  const Fid loose{1, 2, 1};
  cache.InstallData(pinned, StatusFor(pinned, 3), content::Ref::Inline(ToBytes("abc")));
  cache.Pin(pinned);
  cache.Touch(pinned, 0);  // oldest
  cache.InstallData(loose, StatusFor(loose, 3), content::Ref::Inline(ToBytes("def")));
  cache.Touch(loose, 10);
  auto evicted = cache.EnforceLimits();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], loose);  // pinned survives despite being LRU
  cache.Unpin(pinned);
}

TEST_F(FileCacheTest, EverythingPinnedMeansNoEviction) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kFileCount, 1 << 20, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    const Fid fid{1, i + 1, 1};
    cache.InstallData(fid, StatusFor(fid, 1), content::Ref::Inline(Bytes(1, 'x')));
    cache.Pin(fid);
  }
  EXPECT_TRUE(cache.EnforceLimits().empty());
  EXPECT_EQ(cache.data_entry_count(), 3u);
}

TEST_F(FileCacheTest, InvalidateAllMarksEverything) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  for (uint32_t i = 0; i < 3; ++i) {
    const Fid fid{1, i + 1, 1};
    cache.InstallData(fid, StatusFor(fid, 1), content::Ref::Inline(Bytes(1, 'x')));
  }
  cache.InvalidateAll();
  for (const Fid& fid : cache.CachedFids()) {
    EXPECT_FALSE(cache.Find(fid)->valid);
  }
}

TEST_F(FileCacheTest, StatsTrackEvictions) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kFileCount, 1 << 20, 1);
  const Fid a{1, 1, 1}, b{1, 2, 1};
  cache.InstallData(a, StatusFor(a, 100), content::Ref::Inline(Bytes(100, 'x')));
  cache.Touch(a, 0);
  cache.InstallData(b, StatusFor(b, 50), content::Ref::Inline(Bytes(50, 'y')));
  cache.Touch(b, 1);
  cache.EnforceLimits();
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_bytes, 100u);
}

TEST_F(FileCacheTest, WriteDataUpdatesAccounting) {
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  const Fid fid{1, 2, 3};
  cache.InstallData(fid, StatusFor(fid, 3), content::Ref::Inline(ToBytes("abc")));
  ASSERT_EQ(cache.WriteData(fid, Bytes(1000, 'z')), Status::kOk);
  EXPECT_EQ(cache.data_bytes(), 1000u);
  EXPECT_EQ(cache.Find(fid)->status.length, 1000u);
}

TEST_F(FileCacheTest, PathForDerivesTheLocalPathFromTheFid) {
  // Regression: entries no longer store a cache_path string; the local path
  // is derived from the fid on demand and must be stable across the entry's
  // whole lifetime (install, read, write, erase all address the same file).
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, 1 << 20, 100);
  const Fid fid{7, 42, 9};
  EXPECT_EQ(cache.PathFor(fid), "/cache/7.42.9");
  cache.InstallData(fid, StatusFor(fid, 3), content::Ref::Inline(ToBytes("abc")));
  EXPECT_TRUE(fs_.Stat(cache.PathFor(fid)).ok());
  ASSERT_EQ(cache.WriteData(fid, ToBytes("abcd")), Status::kOk);
  EXPECT_EQ(ToString(*fs_.ReadFile(cache.PathFor(fid))), "abcd");
  cache.Erase(fid);
  EXPECT_FALSE(fs_.Stat(cache.PathFor(fid)).ok());
}

TEST_F(FileCacheTest, EvictionRemovesDerivedFilesAndKeepsAccountingExact) {
  // Same scenario as SpaceLimitEvictsLru, additionally pinning the on-disk
  // and byte-accounting effects: the evicted fid's derived file is gone,
  // the survivors' files remain, and data_bytes equals the surviving sum.
  auto cache = MakeCache(VenusConfig::CacheLimit::kSpace, /*max_bytes=*/1000, 100);
  for (uint32_t i = 0; i < 4; ++i) {
    const Fid fid{1, i + 10, 1};
    cache.InstallData(fid, StatusFor(fid, 300), content::Ref::Inline(Bytes(300, 'a')));
    cache.Touch(fid, i * 100);
  }
  auto evicted = cache.EnforceLimits();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_FALSE(fs_.Stat(cache.PathFor(evicted[0])).ok());
  uint64_t surviving = 0;
  for (const Fid& fid : cache.CachedFids()) {
    if (cache.Find(fid)->has_data) {
      EXPECT_TRUE(fs_.Stat(cache.PathFor(fid)).ok());
      surviving += cache.Find(fid)->status.length;
    }
  }
  EXPECT_EQ(cache.data_bytes(), surviving);
  EXPECT_EQ(cache.data_bytes(), 900u);
}

}  // namespace
}  // namespace itc::venus
