#include <unordered_set>

#include <gtest/gtest.h>

#include "hash/fks_perfect_hash.h"
#include "hash/itemset_table.h"
#include "hash/universal_hash.h"

namespace corrmine::hash {
namespace {

TEST(UniversalHashTest, InRangeAndDeterministic) {
  UniversalHashFunction h(12345, 6789);
  for (uint64_t key : {uint64_t{0}, uint64_t{1}, uint64_t{42}, UINT64_MAX}) {
    uint64_t v = h(key, 100);
    EXPECT_LT(v, 100u);
    EXPECT_EQ(v, h(key, 100));
  }
}

TEST(UniversalHashTest, ZeroAIsFixedUp) {
  UniversalHashFunction h(0, 5);
  // a = 0 would collapse everything to one slot; constructor forces a = 1.
  EXPECT_EQ(h.a(), 1u);
}

TEST(UniversalHashTest, DifferentFunctionsDisagree) {
  SplitMix64 rng(7);
  UniversalHashFunction h1 = rng.NextHashFunction();
  UniversalHashFunction h2 = rng.NextHashFunction();
  int differences = 0;
  for (uint64_t key = 0; key < 100; ++key) {
    if (h1(key, 1024) != h2(key, 1024)) ++differences;
  }
  EXPECT_GT(differences, 50);
}

TEST(SplitMix64Test, ReproducibleStream) {
  SplitMix64 a(99), b(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// --- FKS static perfect hashing ---

TEST(FksTest, EmptyTable) {
  auto table = FksPerfectHash::Build({});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 0u);
  EXPECT_FALSE(table->Contains(42));
}

TEST(FksTest, FindsAllKeysRejectsOthers) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 500; ++i) keys.push_back(i * i * 31 + 7);
  auto table = FksPerfectHash::Build(keys);
  ASSERT_TRUE(table.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto found = table->Find(keys[i]);
    ASSERT_TRUE(found.has_value()) << keys[i];
    EXPECT_EQ(*found, i);
  }
  std::unordered_set<uint64_t> key_set(keys.begin(), keys.end());
  for (uint64_t probe = 0; probe < 1000; ++probe) {
    if (!key_set.count(probe)) {
      EXPECT_FALSE(table->Contains(probe));
    }
  }
}

TEST(FksTest, RejectsDuplicateKeys) {
  EXPECT_TRUE(
      FksPerfectHash::Build({1, 2, 1}).status().IsInvalidArgument());
}

TEST(FksTest, SpaceIsLinear) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 2000; ++i) keys.push_back(i * 2654435761ULL + 3);
  auto table = FksPerfectHash::Build(keys);
  ASSERT_TRUE(table.ok());
  // FKS guarantees expected sum of squared bucket sizes <= 4n.
  EXPECT_LE(table->slot_count(), 4 * keys.size());
}

// --- Static itemset table ---

TEST(ItemsetTableTest, FindReturnsBuildIndexes) {
  std::vector<ItemId> arena;
  for (ItemId a = 0; a < 60; ++a) {
    for (ItemId b = a + 1; b < 60; ++b) arena.insert(arena.end(), {a, b});
  }
  auto table = ItemsetTable::Build(2, arena);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->size(), 60u * 59u / 2u);
  // The probe returns the build index, the key the miner's parallel count
  // and subset-index arrays are addressed by.
  for (size_t i = 0; i < table->size(); ++i) {
    EXPECT_EQ(table->Find(table->member(i)), i);
  }
  const ItemId wrong_width[] = {0, 1, 2};
  const ItemId out_of_range[] = {0, 60};
  EXPECT_EQ(table->Find(wrong_width), ItemsetTable::kAbsent);
  EXPECT_EQ(table->Find(out_of_range), ItemsetTable::kAbsent);
  EXPECT_GT(table->MemoryBytes(), arena.size() * sizeof(ItemId));
}

TEST(ItemsetTableTest, BuildRejectsRepeatedAndRaggedMembers) {
  EXPECT_TRUE(ItemsetTable::Build(2, {1, 2, 3, 4, 1, 2})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ItemsetTable::Build(2, {1, 2, 3}).status().IsInvalidArgument());
  EXPECT_TRUE(ItemsetTable::Build(0, {1}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace corrmine::hash
