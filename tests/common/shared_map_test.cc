#include "src/common/shared_map.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace itc {
namespace {

using Map = SharedMap<uint32_t, uint64_t>;

// Size, every lookup over the key space, and in-order iteration.
void ExpectSame(const Map& shared, const std::map<uint32_t, uint64_t>& model,
                uint32_t key_space) {
  ASSERT_EQ(shared.size(), model.size());
  EXPECT_EQ(shared.empty(), model.empty());
  for (uint32_t k = 0; k < key_space; ++k) {
    const uint64_t* v = shared.Find(k);
    auto it = model.find(k);
    ASSERT_EQ(v != nullptr, it != model.end()) << "key " << k;
    if (v != nullptr) {
      EXPECT_EQ(*v, it->second) << "key " << k;
    }
  }
  std::vector<std::pair<uint32_t, uint64_t>> walked(shared.begin(), shared.end());
  std::vector<std::pair<uint32_t, uint64_t>> expected(model.begin(), model.end());
  EXPECT_EQ(walked, expected);
}

// Seeded random Set/Erase/lookup sequences against std::map. Every copy
// taken along the way must still equal the model state of its step at the
// end: a Set or Erase that wrote into a node shared with an earlier copy
// would show up there.
TEST(SharedMapTest, MatchesStdMapAndEveryEarlierCopy) {
  constexpr uint32_t kKeySpace = 300;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Map shared;
    std::map<uint32_t, uint64_t> model;
    std::vector<std::pair<Map, std::map<uint32_t, uint64_t>>> copies;
    for (int step = 0; step < 3000; ++step) {
      const uint32_t key = static_cast<uint32_t>(rng.Below(kKeySpace));
      const uint64_t op = rng.Below(10);
      if (op < 5) {
        const uint64_t value = rng.NextU64();
        shared.Set(key, value);
        model[key] = value;
      } else if (op < 8) {
        EXPECT_EQ(shared.Erase(key), model.erase(key) == 1);
      } else {
        const uint64_t* v = shared.Find(key);
        ASSERT_EQ(v != nullptr, model.contains(key));
        if (v != nullptr) {
          EXPECT_EQ(*v, model.at(key));
        }
      }
      ASSERT_EQ(shared.size(), model.size());
      EXPECT_EQ(shared.contains(key), model.contains(key));
      if (step % 25 == 0) {
        ExpectSame(shared, model, kKeySpace);
        copies.emplace_back(shared, model);
      }
    }
    ExpectSame(shared, model, kKeySpace);
    for (const auto& [copy, state] : copies) ExpectSame(copy, state, kKeySpace);
  }
}

TEST(SharedMapTest, DrainsToEmptyInAnyOrder) {
  Rng rng(9);
  Map shared;
  std::vector<uint32_t> keys;
  for (uint32_t k = 0; k < 500; ++k) {
    shared.Set(k, k);
    keys.push_back(k);
  }
  const Map full = shared;
  while (!keys.empty()) {
    const size_t i = rng.Below(keys.size());
    EXPECT_TRUE(shared.Erase(keys[i]));
    EXPECT_FALSE(shared.Erase(keys[i]));
    keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_EQ(shared.size(), keys.size());
  }
  EXPECT_TRUE(shared.empty());
  EXPECT_EQ(shared.begin(), shared.end());
  EXPECT_EQ(full.size(), 500u);
  uint32_t expect = 0;
  for (const auto& [k, v] : full) {
    EXPECT_EQ(k, expect);
    EXPECT_EQ(v, expect);
    ++expect;
  }
}

TEST(SharedMapTest, SetReplacesWithoutTouchingCopies) {
  SharedMap<std::string, std::string> names;
  names.Set("alice", "1");
  names.Set("bob", "2");
  const auto before = names;
  names.Set("alice", "3");
  names.Set("carol", "4");
  EXPECT_EQ(*names.Find("alice"), "3");
  EXPECT_EQ(names.size(), 3u);
  EXPECT_EQ(*before.Find("alice"), "1");
  EXPECT_FALSE(before.contains("carol"));
  EXPECT_EQ(before.size(), 2u);
}

TEST(SharedSetTest, IteratesKeysInOrder) {
  SharedSet<int> set;
  for (int k : {5, 1, 4, 1, 3}) set.Set(k, {});
  std::vector<int> keys;
  for (const auto& entry : set) keys.push_back(entry.first);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 4, 5}));
}

}  // namespace
}  // namespace itc
