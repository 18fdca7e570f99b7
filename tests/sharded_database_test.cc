// The partitioned dataset layer: round-robin placement, exact summed
// marginals, Flatten invertibility, and the K-invariance contract — the
// sharded provider must answer every count exactly like a whole-database
// provider, for any shard count and any pool.

#include "itemset/sharded_database.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "io/binary_io.h"
#include "io/sharded_loader.h"
#include "io/transaction_io.h"
#include "itemset/count_provider.h"
#include "itemset/kernels.h"
#include "test_util.h"

namespace corrmine {
namespace {

TEST(ShardedDatabaseTest, RoundRobinPlacementAndOriginalOrder) {
  ShardedTransactionDatabase db(/*num_items=*/10, /*num_shards=*/3);
  ASSERT_TRUE(db.AddBasket({0, 1}).ok());   // shard 0, row 0
  ASSERT_TRUE(db.AddBasket({2}).ok());      // shard 1, row 0
  ASSERT_TRUE(db.AddBasket({3, 4}).ok());   // shard 2, row 0
  ASSERT_TRUE(db.AddBasket({5}).ok());      // shard 0, row 1
  EXPECT_EQ(db.num_shards(), 3u);
  EXPECT_EQ(db.num_baskets(), 4u);
  EXPECT_EQ(db.shard(0).num_baskets(), 2u);
  EXPECT_EQ(db.shard(1).num_baskets(), 1u);
  EXPECT_EQ(db.shard(2).num_baskets(), 1u);
  // basket(i) resolves through the round-robin layout to arrival order.
  EXPECT_EQ(db.basket(0), (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(db.basket(1), (std::vector<ItemId>{2}));
  EXPECT_EQ(db.basket(2), (std::vector<ItemId>{3, 4}));
  EXPECT_EQ(db.basket(3), (std::vector<ItemId>{5}));
  EXPECT_EQ(db.ItemCount(0), 1u);
  EXPECT_EQ(db.TotalItemOccurrences(), 6u);
  EXPECT_FALSE(db.AddBasket({10}).ok());  // out of range
}

TEST(ShardedDatabaseTest, ShardCountClampedAndResolved) {
  ShardedTransactionDatabase db(4, 0);
  EXPECT_EQ(db.num_shards(), 1u);  // clamped to >= 1
  EXPECT_EQ(ShardedTransactionDatabase::ResolveShardCount(3), 3u);
  EXPECT_EQ(ShardedTransactionDatabase::ResolveShardCount(-2), 1u);
  EXPECT_GE(ShardedTransactionDatabase::ResolveShardCount(0), 1u);
}

TEST(ShardedDatabaseTest, PartitionAndFlattenAreInverse) {
  auto db = corrmine::testing::RandomIndependentDatabase(30, 400, 13);
  for (size_t shards : {1, 2, 4, 7}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Partition(db, shards);
    ASSERT_EQ(sharded.num_baskets(), db.num_baskets());
    EXPECT_EQ(sharded.num_items(), db.num_items());
    for (size_t i = 0; i < db.num_baskets(); ++i) {
      ASSERT_EQ(sharded.basket(i), db.basket(i)) << "basket " << i;
    }
    for (ItemId item = 0; item < db.num_items(); ++item) {
      ASSERT_EQ(sharded.ItemCount(item), db.ItemCount(item))
          << "item " << item;
    }
    TransactionDatabase flat = sharded.Flatten();
    ASSERT_EQ(flat.num_baskets(), db.num_baskets());
    for (size_t i = 0; i < db.num_baskets(); ++i) {
      ASSERT_EQ(flat.basket(i), db.basket(i)) << "basket " << i;
    }
  }
}

// The kernel.* counters, read from the global registry.
std::vector<uint64_t> KernelCounters() {
  std::vector<uint64_t> values;
  for (const char* name :
       {"kernel.blocked_groups", "kernel.blocked_queries", "kernel.and_words",
        "kernel.block_and_words", "kernel.popcount_words"}) {
    values.push_back(MetricsRegistry::Global().GetCounter(name)->Value());
  }
  return values;
}

TEST(ShardedDatabaseTest, ProviderCountsInvariantAcrossShardAndPool) {
  // Every size-1..3 itemset over a subset of the item space.
  std::vector<Itemset> queries;
  for (ItemId a = 0; a < 12; ++a) {
    queries.push_back(Itemset{a});
    for (ItemId b = a + 1; b < 12; ++b) {
      queries.push_back(Itemset{a, b});
      for (ItemId c = b + 1; c < 12; ++c) queries.push_back(Itemset{a, b, c});
    }
  }
  // Enough baskets that every shard up to K = 5 spans at least two word
  // stripes, so stripe tasks, group splits and the per-slot reduction all
  // run.
  const size_t stripe = BlockedCountPlan::Build(queries).stripe_words;
  const size_t baskets = 5 * (stripe * 64 + 1);
  auto db = corrmine::testing::RandomIndependentDatabase(25, baskets, 17);
  BitmapCountProvider reference(db);
  ASSERT_GT(reference.index().words_per_bitmap(), 5 * stripe);
  std::vector<uint64_t> expected(queries.size());
  reference.CountAllPresentBatch(queries, expected);

  for (size_t shards : {1, 2, 3, 5}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Partition(db, shards);
    ShardedCountProvider provider(sharded);
    EXPECT_EQ(provider.num_baskets(), db.num_baskets());
    EXPECT_EQ(provider.num_shards(), shards);
    for (size_t k = 0; k < shards; ++k) {
      ASSERT_GT(provider.shard_index(k).words_per_bitmap(), stripe);
    }

    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(provider.CountAllPresent(queries[i]), expected[i])
          << "query " << queries[i].ToString();
    }

    // Same counts and the same kernel.* work for any thread count.
    std::vector<uint64_t> first_delta;
    for (int threads : {1, 2, 4}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
      std::vector<uint64_t> batch(queries.size(), 0);
      const std::vector<uint64_t> before = KernelCounters();
      provider.CountAllPresentBatch(queries, batch, pool.get());
      const std::vector<uint64_t> after = KernelCounters();
      EXPECT_EQ(batch, expected) << "threads " << threads;
      std::vector<uint64_t> delta(after.size());
      for (size_t c = 0; c < after.size(); ++c) delta[c] = after[c] - before[c];
      if (first_delta.empty()) {
        first_delta = delta;
      } else {
        EXPECT_EQ(delta, first_delta) << "threads " << threads;
      }
    }
  }
}

TEST(ShardedLoaderTest, TextAndBinaryStreamIntoShards) {
  auto db = corrmine::testing::RandomIndependentDatabase(20, 300, 29);

  std::string text_path = ::testing::TempDir() + "/sharded_loader.txt";
  ASSERT_TRUE(io::WriteTransactionFile(db, text_path).ok());
  std::string bin_path = ::testing::TempDir() + "/sharded_loader.bin";
  ASSERT_TRUE(io::WriteBinaryTransactionFile(db, bin_path).ok());

  for (const std::string& path : {text_path, bin_path}) {
    // The unified monolithic entry point auto-detects both encodings.
    auto mono = io::LoadTransactionFile(path);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    ASSERT_EQ(mono->num_baskets(), db.num_baskets()) << path;

    for (size_t shards : {1, 3, 5}) {
      auto loaded = io::LoadTransactionFileSharded(path, shards);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->num_shards(), shards);
      ASSERT_EQ(loaded->num_baskets(), db.num_baskets()) << path;
      EXPECT_EQ(loaded->num_items(), db.num_items()) << path;
      for (size_t i = 0; i < db.num_baskets(); ++i) {
        ASSERT_EQ(loaded->basket(i), db.basket(i))
            << path << " shards " << shards << " basket " << i;
      }
    }
  }
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());

  EXPECT_FALSE(io::LoadTransactionFileSharded("/nonexistent/x.txt", 2).ok());
}

TEST(ShardedLoaderTest, ItemSpaceHintFloorsTextLoads) {
  std::string path = ::testing::TempDir() + "/sharded_loader_hint.txt";
  {
    std::ofstream out(path);
    out << "0 2\n1\n";
  }
  auto plain = io::LoadTransactionFileSharded(path, 2);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->num_items(), 3u);  // max id + 1
  auto hinted = io::LoadTransactionFileSharded(path, 2, /*num_items_hint=*/8);
  ASSERT_TRUE(hinted.ok());
  EXPECT_EQ(hinted->num_items(), 8u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corrmine
