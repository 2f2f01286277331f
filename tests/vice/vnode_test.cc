// Differential tests for DirIndex: on any buffer, finding one name in the
// index of serialized directory data must agree with deserializing the whole
// directory and calling find — the same entry, or the same error — and the
// index's listing must be the map's keys.

#include "src/vice/vnode.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/rpc/wire.h"

namespace itc::vice {
namespace {

DirIndex IndexOf(const Bytes& data) { return DirIndex(std::make_shared<const Bytes>(data)); }

// What a walk step did before the index: the whole map, then one find.
Result<DirItem> ReferenceLookup(const Bytes& data, const std::string& name) {
  ASSIGN_OR_RETURN(DirMap entries, DeserializeDirectory(data));
  auto it = entries.find(name);
  if (it == entries.end()) return Status::kNotFound;
  return it->second;
}

// The keys of DeserializeDirectory's map, or its error.
Result<std::vector<std::string>> ReferenceNames(const Bytes& data) {
  ASSIGN_OR_RETURN(DirMap entries, DeserializeDirectory(data));
  std::vector<std::string> names;
  for (const auto& [name, item] : entries) names.push_back(name);
  return names;
}

void ExpectSameLookup(const Bytes& data, const std::string& name) {
  const Result<DirItem> want = ReferenceLookup(data, name);
  const Result<DirItem> got = IndexOf(data).Find(name);
  ASSERT_EQ(got.status(), want.status()) << "name '" << name << "'";
  if (want.ok()) {
    EXPECT_EQ(*got, *want) << "name '" << name << "'";
  }
  if (got.status() == Status::kNotFound) {
    EXPECT_TRUE(DeserializeDirectory(data).ok());
  }
}

void ExpectSameNames(const Bytes& data) {
  const Result<std::vector<std::string>> want = ReferenceNames(data);
  const Result<std::vector<std::string>> got = IndexOf(data).Names();
  ASSERT_EQ(got.status(), want.status());
  if (want.ok()) {
    EXPECT_EQ(*got, *want);
  }
}

// 1-10 letters over {a, b, c}, so names that are prefixes of one another
// ("a", "ab", "abc") are common at every directory size.
std::string RandomName(Rng& rng) {
  std::string name(1 + rng.Below(10), 'a');
  for (char& c : name) c = "abc"[rng.Below(3)];
  return name;
}

DirItem RandomItem(Rng& rng) {
  const auto kind = static_cast<DirItem::Kind>(rng.Below(4));
  if (kind == DirItem::Kind::kMountPoint) {
    return DirItem{kind, kNullFid, static_cast<VolumeId>(1 + rng.Below(5000))};
  }
  const Fid fid{static_cast<VolumeId>(1 + rng.Below(50)), static_cast<uint32_t>(rng.NextU64()),
                static_cast<uint32_t>(rng.NextU64())};
  return DirItem{kind, fid, kInvalidVolume};
}

TEST(DirectoryLookupTest, AgreesWithDeserializeOnRandomDirectories) {
  Rng rng(0x5eed);
  std::vector<size_t> sizes = {0, 1, 2, 3, 17, 185, 1000, 2000};
  for (int i = 0; i < 8; ++i) sizes.push_back(rng.Below(300));

  for (size_t n : sizes) {
    DirMap entries;
    while (entries.size() < n) entries.emplace(RandomName(rng), RandomItem(rng));
    const Bytes data = SerializeDirectory(entries);
    auto parsed = DeserializeDirectory(data);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(*parsed, entries);
    const DirIndex index = IndexOf(data);

    for (const auto& [name, item] : *parsed) {
      auto got = index.Find(name);
      ASSERT_TRUE(got.ok()) << "size " << n << " name '" << name << "'";
      EXPECT_EQ(*got, item) << "size " << n << " name '" << name << "'";
    }
    ExpectSameNames(data);

    // Absent names: the empty name, one outside the alphabet, the present
    // names' one-letter extensions and truncations, and random draws.
    std::vector<std::string> absent = {"", "zzz", std::string(11, 'a')};
    for (int k = 0; k < 8; ++k) absent.push_back(RandomName(rng));
    for (auto it = entries.begin(); it != entries.end() && absent.size() < 32; ++it) {
      absent.push_back(it->first + "c");
      absent.push_back(it->first.substr(0, it->first.size() - 1));
    }
    for (const std::string& name : absent) {
      if (entries.contains(name)) continue;
      EXPECT_EQ(index.Find(name).status(), Status::kNotFound)
          << "size " << n << " name '" << name << "'";
    }
  }
}

// A hand-built directory buffer: a count, then raw entries whose kind byte
// need not be valid.
struct RawEntry {
  std::string name;
  uint8_t kind;
  Fid fid;
  VolumeId mount_volume;
};

Bytes Encode(uint32_t count, const std::vector<RawEntry>& entries) {
  rpc::Writer w;
  w.PutU32(count);
  for (const RawEntry& e : entries) {
    w.PutString(e.name);
    w.PutU8(e.kind);
    w.PutFid(e.fid);
    w.PutU32(e.mount_volume);
  }
  return w.Take();
}

const std::vector<RawEntry> kThree = {
    {"bin", 1, Fid{4, 2, 2}, kInvalidVolume},
    {"u", 3, kNullFid, 9},
    {"unix", 2, Fid{4, 5, 5}, kInvalidVolume},
};

TEST(DirectoryLookupTest, FirstOfDuplicateNamesWins) {
  const Bytes data = Encode(3, {{"dup", 0, Fid{1, 2, 2}, kInvalidVolume},
                                {"other", 1, Fid{1, 3, 3}, kInvalidVolume},
                                {"dup", 2, Fid{1, 4, 4}, kInvalidVolume}});
  for (const char* name : {"dup", "other", "du", "dupe"}) ExpectSameLookup(data, name);
  auto got = IndexOf(data).Find("dup");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->fid, (Fid{1, 2, 2}));
  ExpectSameNames(data);
}

// No server writes an unsorted buffer, but the index must not depend on it:
// it sorts the entries, keeps duplicates in buffer order, and lists each
// name once.
TEST(DirectoryLookupTest, UnsortedBufferWithDuplicateIsIndexedInNameOrder) {
  const Bytes data = Encode(6, {{"zeta", 0, Fid{1, 2, 2}, kInvalidVolume},
                                {"b", 3, kNullFid, 7},
                                {"alpha", 1, Fid{1, 4, 4}, kInvalidVolume},
                                {"b", 0, Fid{1, 5, 5}, kInvalidVolume},
                                {"", 2, Fid{1, 6, 6}, kInvalidVolume},
                                {"ab", 0, Fid{1, 7, 7}, kInvalidVolume}});
  const DirIndex index = IndexOf(data);
  for (const char* name : {"zeta", "b", "alpha", "", "ab", "a", "bb", "zz"}) {
    ExpectSameLookup(data, name);
  }
  auto b = index.Find("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (DirItem{DirItem::Kind::kMountPoint, kNullFid, 7}));  // the first "b"
  auto names = index.Names();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"", "ab", "alpha", "b", "zeta"}));
  ExpectSameNames(data);
}

// Buffers no server writes, at every size: entries in random order, about a
// fifth of them repeating an earlier name with another item.
TEST(DirectoryLookupTest, AgreesWithDeserializeOnShuffledBuffersWithDuplicates) {
  Rng rng(0xd1ce);
  for (const size_t n : {2, 17, 185, 1000, 2000}) {
    std::vector<RawEntry> raw;
    for (size_t i = 0; i < n; ++i) {
      const bool repeat = i > 0 && rng.Below(5) == 0;
      const std::string name = repeat ? raw[rng.Below(i)].name : RandomName(rng);
      const DirItem item = RandomItem(rng);
      raw.push_back({name, static_cast<uint8_t>(item.kind), item.fid, item.mount_volume});
    }
    const Bytes data = Encode(static_cast<uint32_t>(n), raw);
    auto parsed = DeserializeDirectory(data);
    ASSERT_TRUE(parsed.ok());
    if (n >= 185) {
      ASSERT_LT(parsed->size(), n) << "size " << n;  // some names repeat
    }
    const DirIndex index = IndexOf(data);
    for (const auto& [name, item] : *parsed) {
      auto got = index.Find(name);
      ASSERT_TRUE(got.ok()) << "size " << n << " name '" << name << "'";
      EXPECT_EQ(*got, item) << "size " << n << " name '" << name << "'";
    }
    EXPECT_EQ(index.Find("zzz").status(), Status::kNotFound);
    ExpectSameNames(data);
  }
}

TEST(DirectoryLookupTest, MalformedBuffersFailAlike) {
  std::vector<RawEntry> bad_kind = kThree;
  bad_kind[2].kind = 4;  // past "bin": a lookup must not stop at its match
  Bytes trailing = Encode(3, kThree);
  trailing.push_back(0);
  // The second entry's name length reads 0xFFFFFFF0: a bounds check summed
  // in 32 bits wraps it to a few bytes and reads far past the buffer.
  Bytes huge_name = Encode(3, kThree);
  const size_t second = 4 + 4 + kThree[0].name.size() + 1 + 12 + 4;
  huge_name[second] = 0xF0;
  for (size_t i = 1; i < 4; ++i) huge_name[second + i] = 0xFF;
  // A count of 2^32 - 1 entries in a 4-byte buffer.
  const Bytes huge_count = {0xFF, 0xFF, 0xFF, 0xFF};
  const std::vector<Bytes> buffers = {
      Encode(3, bad_kind),
      trailing,
      Encode(4, kThree),  // count promises an entry that is not there
      Encode(2, kThree),  // the third entry is trailing bytes
      huge_name,
      huge_count,
  };
  for (const Bytes& data : buffers) {
    ASSERT_EQ(DeserializeDirectory(data).status(), Status::kProtocolError);
    const DirIndex index = IndexOf(data);
    for (const char* name : {"bin", "u", "unix", "absent"}) {
      ExpectSameLookup(data, name);
      EXPECT_EQ(index.Find(name).status(), Status::kProtocolError);
    }
    ExpectSameNames(data);
    EXPECT_EQ(index.Names().status(), Status::kProtocolError);
  }
}

TEST(DirectoryLookupTest, EveryTruncationFailsAlike) {
  const Bytes full = Encode(3, kThree);
  for (const char* name : {"bin", "u", "unix", "un", "absent"}) ExpectSameLookup(full, name);
  for (size_t len = 0; len < full.size(); ++len) {
    const Bytes cut(full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
    const DirIndex index = IndexOf(cut);
    for (const char* name : {"bin", "u", "unix", "absent"}) {
      ExpectSameLookup(cut, name);
      EXPECT_EQ(index.Find(name).status(), Status::kProtocolError) << "len " << len;
    }
    ExpectSameNames(cut);
  }
}

// One index per buffer: every holder of the same buffer gets the same index,
// an equal buffer elsewhere gets its own, and a buffer whose index died gets
// a new one.
TEST(DirIndexOfTest, OneIndexPerBuffer) {
  const auto buffer = std::make_shared<const Bytes>(Encode(3, kThree));
  const auto twin = std::make_shared<const Bytes>(*buffer);
  const auto index = DirIndex::Of(buffer);
  EXPECT_EQ(DirIndex::Of(buffer), index);
  EXPECT_EQ(DirIndex::Of(std::shared_ptr<const Bytes>(buffer)), index);
  const auto twin_index = DirIndex::Of(twin);
  EXPECT_NE(twin_index, index);
  EXPECT_EQ(twin_index->Find("unix")->fid, index->Find("unix")->fid);

  const auto kept = std::make_shared<const Bytes>(*buffer);
  const std::weak_ptr<const DirIndex> dead = DirIndex::Of(kept);
  EXPECT_TRUE(dead.expired());  // the table does not keep an index alive
  EXPECT_TRUE(DirIndex::Of(kept)->Find("bin").ok());
}

// Sharded kernels ask for indexes from several threads at once; all of them
// must get the one index of each buffer.
TEST(DirIndexOfTest, ConcurrentCallersShareOneIndex) {
  std::vector<std::shared_ptr<const Bytes>> buffers;
  for (uint32_t i = 0; i < 64; ++i) {
    buffers.push_back(std::make_shared<const Bytes>(
        Encode(1, {{"f" + std::to_string(i), 0, Fid{1, i + 2, 1}, kInvalidVolume}})));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::shared_ptr<const DirIndex>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& buffer : buffers) got[t].push_back(DirIndex::Of(buffer));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < buffers.size(); ++i) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t][i], got[0][i]) << i;
    EXPECT_TRUE(got[0][i]->Find("f" + std::to_string(i)).ok());
  }
}

}  // namespace
}  // namespace itc::vice
