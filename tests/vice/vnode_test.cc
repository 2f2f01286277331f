// Differential tests for LookupDirectory: on any buffer, finding one name in
// serialized directory data must agree with deserializing the whole
// directory and calling find — the same entry, or the same error.

#include "src/vice/vnode.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rpc/wire.h"

namespace itc::vice {
namespace {

// What a walk step did before LookupDirectory: the whole map, then one find.
Result<DirItem> ReferenceLookup(const Bytes& data, const std::string& name) {
  ASSIGN_OR_RETURN(DirMap entries, DeserializeDirectory(data));
  auto it = entries.find(name);
  if (it == entries.end()) return Status::kNotFound;
  return it->second;
}

void ExpectSameLookup(const Bytes& data, const std::string& name) {
  const Result<DirItem> want = ReferenceLookup(data, name);
  const Result<DirItem> got = LookupDirectory(data, name);
  ASSERT_EQ(got.status(), want.status()) << "name '" << name << "'";
  if (want.ok()) {
    EXPECT_EQ(*got, *want) << "name '" << name << "'";
  }
  if (got.status() == Status::kNotFound) {
    EXPECT_TRUE(DeserializeDirectory(data).ok());
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

    for (const auto& [name, item] : *parsed) {
      auto got = LookupDirectory(data, name);
      ASSERT_TRUE(got.ok()) << "size " << n << " name '" << name << "'";
      EXPECT_EQ(*got, item) << "size " << n << " name '" << name << "'";
    }

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
      EXPECT_EQ(LookupDirectory(data, name).status(), Status::kNotFound)
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
  auto got = LookupDirectory(data, "dup");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->fid, (Fid{1, 2, 2}));
}

TEST(DirectoryLookupTest, MalformedBuffersFailAlike) {
  std::vector<RawEntry> bad_kind = kThree;
  bad_kind[2].kind = 4;  // past "bin": a lookup must not stop at its match
  Bytes trailing = Encode(3, kThree);
  trailing.push_back(0);
  const std::vector<Bytes> buffers = {
      Encode(3, bad_kind),
      trailing,
      Encode(4, kThree),  // count promises an entry that is not there
      Encode(2, kThree),  // the third entry is trailing bytes
  };
  for (const Bytes& data : buffers) {
    ASSERT_EQ(DeserializeDirectory(data).status(), Status::kProtocolError);
    for (const char* name : {"bin", "u", "unix", "absent"}) {
      ExpectSameLookup(data, name);
      EXPECT_EQ(LookupDirectory(data, name).status(), Status::kProtocolError);
    }
  }
}

TEST(DirectoryLookupTest, EveryTruncationFailsAlike) {
  const Bytes full = Encode(3, kThree);
  for (const char* name : {"bin", "u", "unix", "un", "absent"}) ExpectSameLookup(full, name);
  for (size_t len = 0; len < full.size(); ++len) {
    const Bytes cut(full.begin(), full.begin() + static_cast<ptrdiff_t>(len));
    for (const char* name : {"bin", "u", "unix", "absent"}) {
      ExpectSameLookup(cut, name);
      EXPECT_EQ(LookupDirectory(cut, name).status(), Status::kProtocolError) << "len " << len;
    }
  }
}

}  // namespace
}  // namespace itc::vice
