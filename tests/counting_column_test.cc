// Differential suite for the hybrid counting-column storage layer: random
// container mixes against std::set reference loops, promotion/demotion
// boundaries, run containers, the CCS shard file round trip, and the
// blocked columns executor and CountColumnBatch against naive counting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/quest_generator.h"
#include "datagen/rng.h"
#include "io/column_store.h"
#include "itemset/counting_column.h"
#include "test_util.h"

namespace corrmine {
namespace {

std::vector<uint32_t> RandomRows(datagen::Rng* rng, uint32_t num_rows,
                                 double density) {
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < num_rows; ++r) {
    if (rng->NextBernoulli(density)) rows.push_back(r);
  }
  return rows;
}

/// Clustered rows exercise the run container: bursts of consecutive rows
/// separated by gaps.
std::vector<uint32_t> BurstyRows(datagen::Rng* rng, uint32_t num_rows,
                                 uint32_t mean_burst) {
  std::vector<uint32_t> rows;
  uint32_t r = 0;
  while (r < num_rows) {
    uint32_t burst = 1 + static_cast<uint32_t>(rng->NextDouble() *
                                               static_cast<double>(
                                                   2 * mean_burst));
    for (uint32_t i = 0; i < burst && r < num_rows; ++i) rows.push_back(r++);
    r += 1 + static_cast<uint32_t>(rng->NextDouble() * 200.0);
  }
  return rows;
}

uint64_t ReferenceAndCount(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  std::set<uint32_t> sa(a.begin(), a.end());
  uint64_t count = 0;
  for (uint32_t r : b) count += sa.count(r);
  return count;
}

std::vector<uint32_t> ReferenceAnd(const std::vector<uint32_t>& a,
                                   const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(CountingColumnTest, RandomDensityMatrixMatchesReference) {
  // Every pairing of density classes crosses a different container-kind
  // pair (array x array, array x dense, dense x dense, plus run mixes).
  const double kDensities[] = {0.0005, 0.01, 0.12, 0.6};
  const uint32_t kNumRows = 200000;
  datagen::Rng rng(42);
  std::vector<std::vector<uint32_t>> row_sets;
  for (double d : kDensities) {
    row_sets.push_back(RandomRows(&rng, kNumRows, d));
  }
  row_sets.push_back(BurstyRows(&rng, kNumRows, 300));
  row_sets.push_back(BurstyRows(&rng, kNumRows, 8000));
  std::vector<CountingColumn> cols;
  for (const auto& rows : row_sets) {
    cols.emplace_back(kNumRows, rows);
    EXPECT_EQ(cols.back().Count(), rows.size());
  }
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t j = i; j < cols.size(); ++j) {
      const uint64_t expected = ReferenceAndCount(row_sets[i], row_sets[j]);
      EXPECT_EQ(cols[i].AndCount(cols[j]), expected) << i << " x " << j;
      EXPECT_EQ(cols[j].AndCount(cols[i]), expected) << j << " x " << i;
      const CountingColumn materialized = cols[i].And(cols[j]);
      EXPECT_EQ(materialized.Count(), expected);
      EXPECT_EQ(materialized.ToRows(),
                ReferenceAnd(row_sets[i], row_sets[j]));
      CountingColumn dst;
      EXPECT_EQ(CountingColumn::AndCountInto(cols[i], cols[j], &dst,
                                             nullptr),
                expected);
      EXPECT_EQ(dst.ToRows(), ReferenceAnd(row_sets[i], row_sets[j]));
    }
  }
}

TEST(CountingColumnTest, PromotionBoundaryCounts) {
  // 4095 / 4096 / 4097 distinct offsets in one block straddle the
  // dense-promotion threshold; behavior must be identical on both sides.
  for (uint32_t n : {4095u, 4096u, 4097u}) {
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < n; ++r) rows.push_back(r * 16 % 65536);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    CountingColumn col(65536, rows);
    EXPECT_EQ(col.Count(), rows.size());
    for (uint32_t probe : {0u, 1u, 65535u}) {
      EXPECT_EQ(col.Test(probe),
                std::binary_search(rows.begin(), rows.end(), probe));
    }
    EXPECT_EQ(col.ToRows(), rows);
    EXPECT_EQ(col.AndCount(col), rows.size());
  }
}

TEST(CountingColumnTest, FullAndEmptyBlocks) {
  const uint32_t kNumRows = 3 * 65536;
  std::vector<uint32_t> full_mid;
  for (uint32_t r = 65536; r < 2 * 65536; ++r) full_mid.push_back(r);
  CountingColumn mid(kNumRows, full_mid);
  EXPECT_EQ(mid.Count(), 65536u);
  CountingColumn empty(kNumRows, {});
  EXPECT_EQ(mid.AndCount(empty), 0u);
  EXPECT_EQ(empty.AndCount(mid), 0u);
  std::vector<uint32_t> everything(kNumRows);
  for (uint32_t r = 0; r < kNumRows; ++r) everything[r] = r;
  CountingColumn all(kNumRows, everything);
  EXPECT_EQ(all.AndCount(mid), 65536u);
  EXPECT_EQ(all.AndCount(all), static_cast<uint64_t>(kNumRows));
  EXPECT_EQ(all.And(mid).ToRows(), full_mid);
}

TEST(CountingColumnTest, DemotionAfterIntersection) {
  // Two dense-worthy columns whose intersection is tiny: the result must
  // still count and materialize correctly (demoted to an array container).
  std::vector<uint32_t> even, mostly_odd;
  for (uint32_t r = 0; r < 65536; r += 2) even.push_back(r);
  for (uint32_t r = 1; r < 65536; r += 2) mostly_odd.push_back(r);
  mostly_odd.push_back(20000);  // the only shared row
  std::sort(mostly_odd.begin(), mostly_odd.end());
  CountingColumn a(65536, even), b(65536, mostly_odd);
  EXPECT_EQ(a.AndCount(b), 1u);
  const CountingColumn c = a.And(b);
  EXPECT_EQ(c.Count(), 1u);
  EXPECT_EQ(c.ToRows(), std::vector<uint32_t>{20000});
}

TEST(CountingColumnTest, FromBitmapAgrees) {
  datagen::Rng rng(5);
  std::vector<uint32_t> rows = RandomRows(&rng, 99000, 0.3);
  Bitmap bits(99000);
  for (uint32_t r : rows) bits.Set(r);
  const CountingColumn col = CountingColumn::FromBitmap(bits);
  EXPECT_EQ(col.Count(), rows.size());
  EXPECT_EQ(col.ToRows(), rows);
}

TEST(CountingColumnTest, ColumnShardFileRoundTrip) {
  auto db_or = datagen::GenerateQuestData({.num_transactions = 4000,
                                          .num_items = 200,
                                          .avg_transaction_size = 12.0,
                                          .seed = 31});
  ASSERT_TRUE(db_or.ok());
  const TransactionDatabase& db = *db_or;
  CompressedVerticalIndex index(db);
  const std::string path =
      (std::filesystem::temp_directory_path() / "corrmine_ccs1_test.ccs")
          .string();
  ASSERT_TRUE(io::WriteColumnShardFile(index, path).ok());
  auto shard_or = io::MappedColumnShard::Open(path);
  ASSERT_TRUE(shard_or.ok()) << shard_or.status().ToString();
  const io::MappedColumnShard& shard = *shard_or.value();
  ASSERT_EQ(shard.num_rows(), index.num_rows());
  ASSERT_EQ(shard.num_columns(), index.num_columns());
  for (ItemId item = 0; item < index.num_columns(); ++item) {
    EXPECT_EQ(shard.column(item).ToRows(), index.column(item).ToRows())
        << "item " << item;
  }
  // Counting through the mapped shard equals counting in memory.
  datagen::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = 1 + static_cast<int>(rng.NextDouble() * 3.0);
    std::set<ItemId> picked;
    while (static_cast<int>(picked.size()) < k) {
      picked.insert(static_cast<ItemId>(rng.NextDouble() * 200.0));
    }
    const Itemset query(std::vector<ItemId>(picked.begin(), picked.end()));
    EXPECT_EQ(CountAllPresentColumns(shard, query),
              CountAllPresentColumns(index, query));
  }
  std::filesystem::remove(path);
}

TEST(CountingColumnTest, U16DeltaVarintArrayRoundTrip) {
  datagen::Rng rng(411);
  for (const double density : {0.001, 0.05, 0.31}) {
    std::vector<uint32_t> rows32 = RandomRows(&rng, 65536, density);
    std::vector<uint16_t> offsets(rows32.begin(), rows32.end());
    std::string encoded;
    EncodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                         std::span<const uint16_t>(offsets), &encoded);
    std::vector<uint16_t> decoded;
    ASSERT_TRUE(DecodeU16DeltaVarint(
                    CountingColumn::ContainerKind::kArray,
                    reinterpret_cast<const uint8_t*>(encoded.data()),
                    encoded.size(), offsets.size(), &decoded)
                    .ok());
    EXPECT_EQ(decoded, offsets) << "density " << density;
  }
  // Extremes: empty, singleton 0, singleton 0xffff, the {0, 0xffff} pair.
  for (const std::vector<uint16_t>& offsets :
       {std::vector<uint16_t>{}, {0}, {0xffff}, {0, 0xffff}}) {
    std::string encoded;
    EncodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                         std::span<const uint16_t>(offsets), &encoded);
    std::vector<uint16_t> decoded;
    ASSERT_TRUE(DecodeU16DeltaVarint(
                    CountingColumn::ContainerKind::kArray,
                    reinterpret_cast<const uint8_t*>(encoded.data()),
                    encoded.size(), offsets.size(), &decoded)
                    .ok());
    EXPECT_EQ(decoded, offsets);
  }
}

TEST(CountingColumnTest, U16DeltaVarintRunRoundTrip) {
  // (start, length-1) pairs; the directory count is the set-row total.
  const std::vector<uint16_t> runs = {0, 4, 100, 0, 4000, 255, 0xff00, 0xff};
  size_t count = 0;
  for (size_t i = 1; i < runs.size(); i += 2) count += runs[i] + 1;
  std::string encoded;
  EncodeU16DeltaVarint(CountingColumn::ContainerKind::kRun,
                       std::span<const uint16_t>(runs), &encoded);
  std::vector<uint16_t> decoded;
  ASSERT_TRUE(DecodeU16DeltaVarint(
                  CountingColumn::ContainerKind::kRun,
                  reinterpret_cast<const uint8_t*>(encoded.data()),
                  encoded.size(), count, &decoded)
                  .ok());
  EXPECT_EQ(decoded, runs);
  // A dense burst pattern (what the run container actually holds).
  datagen::Rng rng(19);
  std::vector<uint32_t> bursty = BurstyRows(&rng, 65536, 40);
  CountingColumn col(65536, bursty);
  EXPECT_EQ(col.ToRows(), bursty);
}

TEST(CountingColumnTest, U16DeltaVarintRejectsCorruption) {
  const std::vector<uint16_t> offsets = {3, 9, 1000};
  std::string encoded;
  EncodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                       std::span<const uint16_t>(offsets), &encoded);
  const auto* data = reinterpret_cast<const uint8_t*>(encoded.data());
  std::vector<uint16_t> decoded;
  // Truncated payload: fewer bytes than the directory count demands.
  EXPECT_FALSE(DecodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                                    data, encoded.size() - 1, offsets.size(),
                                    &decoded)
                   .ok());
  // Count larger than the payload encodes.
  EXPECT_FALSE(DecodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                                    data, encoded.size(), offsets.size() + 1,
                                    &decoded)
                   .ok());
  // A u16 varint never needs a 4th byte: 2^32 + 5 must not wrap to 5,
  // and an overlong 4-byte encoding of 5 is rejected too.
  const uint8_t overflowing[] = {0x85, 0x80, 0x80, 0x80, 0x10, 0x03};
  EXPECT_FALSE(DecodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                                    overflowing, sizeof(overflowing), 2,
                                    &decoded)
                   .ok());
  const uint8_t overlong[] = {0x85, 0x80, 0x80, 0x00, 0x03};
  EXPECT_FALSE(DecodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                                    overlong, sizeof(overlong), 2, &decoded)
                   .ok());
  // A zero delta in a non-first position breaks strict monotonicity.
  const uint8_t zero_delta[] = {3, 0, 0};
  EXPECT_FALSE(DecodeU16DeltaVarint(CountingColumn::ContainerKind::kArray,
                                    zero_delta, sizeof(zero_delta), 3,
                                    &decoded)
                   .ok());
  // Run lengths that do not sum to the directory count.
  const std::vector<uint16_t> runs = {0, 4, 10, 4};
  std::string run_encoded;
  EncodeU16DeltaVarint(CountingColumn::ContainerKind::kRun,
                       std::span<const uint16_t>(runs), &run_encoded);
  EXPECT_FALSE(
      DecodeU16DeltaVarint(
          CountingColumn::ContainerKind::kRun,
          reinterpret_cast<const uint8_t*>(run_encoded.data()),
          run_encoded.size(), 11 /* true sum is 10 */, &decoded)
          .ok());
}

TEST(CountingColumnTest, ColumnShardV1BackwardCompat) {
  auto db_or = datagen::GenerateQuestData({.num_transactions = 5000,
                                          .num_items = 150,
                                          .avg_transaction_size = 14.0,
                                          .seed = 61});
  ASSERT_TRUE(db_or.ok());
  CompressedVerticalIndex index(*db_or);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string v1_path = (dir / "corrmine_ccs_v1.ccs").string();
  const std::string v2_path = (dir / "corrmine_ccs_v2.ccs").string();
  io::ColumnShardWriteStats v1_stats, v2_stats;
  io::ColumnShardWriteOptions v1_opts;
  v1_opts.format_version = 1;
  ASSERT_TRUE(
      io::WriteColumnShardFile(index, v1_path, v1_opts, &v1_stats).ok());
  ASSERT_TRUE(io::WriteColumnShardFile(index, v2_path, {}, &v2_stats).ok());
  // v1 is the raw layout: payload bytes == raw bytes. v2 must not lose to
  // it (the per-block min-byte rule keeps raw when varint would grow).
  EXPECT_EQ(v1_stats.payload_bytes, v1_stats.raw_payload_bytes);
  EXPECT_EQ(v2_stats.raw_payload_bytes, v1_stats.raw_payload_bytes);
  EXPECT_LE(v2_stats.payload_bytes, v1_stats.payload_bytes);
  // Quest rows are sorted and clustered — compression must actually bite,
  // not just tie.
  EXPECT_LT(v2_stats.payload_bytes, v1_stats.raw_payload_bytes);

  auto v1_or = io::MappedColumnShard::Open(v1_path);
  auto v2_or = io::MappedColumnShard::Open(v2_path);
  ASSERT_TRUE(v1_or.ok()) << v1_or.status().ToString();
  ASSERT_TRUE(v2_or.ok()) << v2_or.status().ToString();
  EXPECT_EQ((*v1_or)->format_version(), 1);
  EXPECT_EQ((*v2_or)->format_version(), 2);
  ASSERT_EQ((*v1_or)->num_columns(), index.num_columns());
  ASSERT_EQ((*v2_or)->num_columns(), index.num_columns());
  for (ItemId item = 0; item < index.num_columns(); ++item) {
    const std::vector<uint32_t> expected = index.column(item).ToRows();
    EXPECT_EQ((*v1_or)->column(item).ToRows(), expected) << "item " << item;
    EXPECT_EQ((*v2_or)->column(item).ToRows(), expected) << "item " << item;
  }
  std::filesystem::remove(v1_path);
  std::filesystem::remove(v2_path);
}

TEST(CountingColumnTest, ShardFileRejectsCorruption) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "corrmine_ccs1_bad.ccs")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOPE-not-a-shard-file", f);
    std::fclose(f);
  }
  EXPECT_FALSE(io::MappedColumnShard::Open(path).ok());
  std::filesystem::remove(path);
}

TEST(CountingColumnTest, BlockedExecutorMatchesNaiveCounts) {
  auto db_or = datagen::GenerateQuestData({.num_transactions = 3000,
                                          .num_items = 120,
                                          .avg_transaction_size = 10.0,
                                          .seed = 77});
  ASSERT_TRUE(db_or.ok());
  const TransactionDatabase& db = *db_or;
  const CompressedVerticalIndex index(db);
  // Grouped queries the blocked plan exploits: shared 2-prefixes with
  // varying extensions, plus self (prefix-only) queries.
  std::vector<Itemset> queries;
  for (ItemId a = 0; a < 20; ++a) {
    for (ItemId b = a + 1; b < 24; ++b) {
      const Itemset prefix{a, b};
      queries.push_back(prefix);
      for (ItemId ext = b + 1; ext < b + 5 && ext < 120; ++ext) {
        queries.push_back(prefix.WithItem(ext));
      }
    }
  }
  const BlockedCountPlan plan = BlockedCountPlan::Build(queries);
  std::vector<uint64_t> counts(queries.size(), 0);
  ExecuteBlockedGroupsColumns(plan, 0, plan.groups.size(), index,
                              std::span<uint64_t>(counts), nullptr);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(counts[q], index.CountAllPresent(queries[q])) << "query " << q;
  }
}

// The out-of-core sweep's shape: one plan per batch, counted against each
// partition's columns with CountColumnBatch and summed. Any partition
// count and any pool must reproduce the whole index's scalar counts.
TEST(CountingColumnTest, CountColumnBatchSumsOverPartitionsAndPools) {
  auto db_or = datagen::GenerateQuestData({.num_transactions = 5000,
                                          .num_items = 150,
                                          .avg_transaction_size = 14.0,
                                          .seed = 13});
  ASSERT_TRUE(db_or.ok());
  const TransactionDatabase& db = *db_or;
  std::vector<Itemset> queries;
  datagen::Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const int k = 1 + static_cast<int>(rng.NextDouble() * 4.0);
    std::set<ItemId> picked;
    while (static_cast<int>(picked.size()) < k) {
      picked.insert(static_cast<ItemId>(rng.NextDouble() * 150.0));
    }
    queries.emplace_back(std::vector<ItemId>(picked.begin(), picked.end()));
  }
  const CompressedVerticalIndex whole(db);
  std::vector<uint64_t> expected(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    expected[q] = whole.CountAllPresent(queries[q]);
  }
  const BlockedCountPlan plan = BlockedCountPlan::Build(queries);
  for (size_t parts : {1, 2, 5}) {
    // Contiguous row ranges, as the spill cuts its partitions.
    std::vector<CompressedVerticalIndex> partitions;
    const size_t rows = (db.num_baskets() + parts - 1) / parts;
    for (size_t begin = 0; begin < db.num_baskets(); begin += rows) {
      TransactionDatabase part(db.num_items());
      for (size_t row = begin;
           row < std::min(begin + rows, db.num_baskets()); ++row) {
        ASSERT_TRUE(part.AddBasket(db.basket(row)).ok());
      }
      partitions.emplace_back(part);
    }
    ASSERT_EQ(partitions.size(), parts);
    for (int threads : {1, 3}) {
      ThreadPool pool(threads);
      std::vector<uint64_t> counts(queries.size(), 0);
      std::vector<uint64_t> partial(queries.size());
      for (const CompressedVerticalIndex& partition : partitions) {
        CountColumnBatch(plan, partition, std::span<uint64_t>(partial),
                         &pool);
        for (size_t q = 0; q < queries.size(); ++q) counts[q] += partial[q];
      }
      EXPECT_EQ(counts, expected) << parts << " partitions, pool " << threads;
    }
  }
}

}  // namespace
}  // namespace corrmine
