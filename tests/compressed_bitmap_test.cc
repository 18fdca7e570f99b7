#include <gtest/gtest.h>

#include "datagen/quest_generator.h"
#include "itemset/counting_column.h"
#include "test_util.h"

namespace corrmine {
namespace {

TEST(CompressedBitmapTest, BuildAndTest) {
  CountingColumn map(200000, {0, 5, 65535, 65536, 199999});
  EXPECT_EQ(map.Count(), 5u);
  EXPECT_TRUE(map.Test(0));
  EXPECT_TRUE(map.Test(65535));
  EXPECT_TRUE(map.Test(65536));
  EXPECT_TRUE(map.Test(199999));
  EXPECT_FALSE(map.Test(1));
  EXPECT_FALSE(map.Test(65537));
  EXPECT_FALSE(map.Test(131072));
}

TEST(CompressedBitmapTest, EmptyMap) {
  CountingColumn map(1000, {});
  EXPECT_EQ(map.Count(), 0u);
  EXPECT_FALSE(map.Test(0));
  EXPECT_TRUE(map.ToRows().empty());
  CountingColumn other(1000, {5});
  EXPECT_EQ(map.AndCount(other), 0u);
}

TEST(CompressedBitmapTest, DenseContainerKicksIn) {
  // 5000 rows in one block crosses the 4096 threshold.
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 5000; ++r) rows.push_back(r * 13 % 65536);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  CountingColumn map(65536, rows);
  EXPECT_EQ(map.Count(), rows.size());
  for (uint32_t r : rows) EXPECT_TRUE(map.Test(r));
  EXPECT_EQ(map.ToRows(), rows);
}

TEST(CompressedBitmapTest, RoundTripThroughRows) {
  datagen::Rng rng(7);
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 300000; ++r) {
    if (rng.NextBernoulli(0.01)) rows.push_back(r);
  }
  CountingColumn map(300000, rows);
  EXPECT_EQ(map.ToRows(), rows);
}

class CompressedVsPlain : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressedVsPlain, AndCountMatchesPlainBitmap) {
  datagen::Rng rng(GetParam());
  size_t n = 100000;
  Bitmap a(n), b(n);
  for (size_t r = 0; r < n; ++r) {
    if (rng.NextBernoulli(0.02)) a.Set(r);
    if (rng.NextBernoulli(0.3)) b.Set(r);  // One sparse, one dense-ish.
  }
  CountingColumn ca = CountingColumn::FromBitmap(a);
  CountingColumn cb = CountingColumn::FromBitmap(b);
  EXPECT_EQ(ca.Count(), a.Count());
  EXPECT_EQ(cb.Count(), b.Count());
  EXPECT_EQ(ca.AndCount(cb), a.AndCount(b));
  EXPECT_EQ(ca.AndCount(ca), a.Count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedVsPlain,
                         ::testing::Values(1, 2, 3, 4));

TEST(CompressedVerticalIndexTest, CountsMatchPlainIndex) {
  datagen::QuestOptions quest;
  quest.num_transactions = 20000;
  quest.num_items = 100;
  quest.avg_transaction_size = 8.0;
  quest.num_patterns = 30;
  auto db = datagen::GenerateQuestData(quest);
  ASSERT_TRUE(db.ok());
  VerticalIndex plain(*db);
  CompressedVerticalIndex compressed(*db);
  datagen::Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<ItemId> items;
    size_t size = 1 + rng.NextBelow(4);
    while (items.size() < size) {
      ItemId candidate = static_cast<ItemId>(rng.NextBelow(100));
      if (std::find(items.begin(), items.end(), candidate) == items.end()) {
        items.push_back(candidate);
      }
    }
    Itemset s(items);
    EXPECT_EQ(compressed.CountAllPresent(s), plain.CountAllPresent(s))
        << s.ToString();
  }
}

TEST(CompressedVerticalIndexTest, CompressesSparseColumns) {
  // Quest columns are ~2% dense: compressed payloads should be far
  // smaller than the plain bitmaps (items/8 bytes each).
  datagen::QuestOptions quest;
  quest.num_transactions = 50000;
  quest.num_items = 500;
  quest.avg_transaction_size = 10.0;
  quest.num_patterns = 120;
  auto db = datagen::GenerateQuestData(quest);
  ASSERT_TRUE(db.ok());
  CompressedVerticalIndex compressed(*db);
  size_t plain_bytes = (db->num_baskets() + 7) / 8 * db->num_items();
  EXPECT_LT(compressed.MemoryBytes(), plain_bytes / 2)
      << "compressed " << compressed.MemoryBytes() << " vs plain "
      << plain_bytes;
}

}  // namespace
}  // namespace corrmine
