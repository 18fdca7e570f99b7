// MiningSession facade: one object owning dataset, provider, pool and
// metrics must produce exactly the results of hand-assembled plumbing, for
// any shard/thread configuration — and the level-wise miner running under
// it must stay on the batch counting path (one CountAllPresentBatch per
// level, zero scalar calls).

#include "core/session.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/transaction_io.h"
#include "itemset/count_provider.h"
#include "test_util.h"

namespace corrmine {
namespace {

TransactionDatabase SeededQuest(uint64_t seed) {
  datagen::QuestOptions quest;
  quest.num_transactions = 600;
  quest.num_items = 30;
  quest.avg_transaction_size = 6.0;
  quest.num_patterns = 8;
  quest.seed = seed;
  auto db = datagen::GenerateQuestData(quest);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

using Rows = std::vector<std::vector<ItemId>>;

Rows RowsOf(const TransactionDatabase& db) {
  Rows rows;
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    rows.push_back(db.basket(row));
  }
  return rows;
}

std::string Fingerprint(const MiningResult& result) {
  std::string out;
  for (const CorrelationRule& rule : result.significant) {
    out += rule.itemset.ToString() + ":" +
           std::to_string(rule.chi2.statistic) + ";";
  }
  for (const LevelStats& level : result.levels) {
    out += std::to_string(level.level) + "/" +
           std::to_string(level.candidates) + "/" +
           std::to_string(level.significant) + "/" +
           std::to_string(level.not_significant) + ";";
  }
  return out;
}

MinerOptions TestMinerOptions() {
  MinerOptions options;
  options.support.min_count = 8;
  options.support.cell_fraction = 0.25;
  options.chi2.min_expected_cell = 1.0;
  return options;
}

TEST(MiningSessionTest, MatchesStandaloneMinerForAnyShardThreadConfig) {
  TransactionDatabase db = SeededQuest(1997);
  BitmapCountProvider reference(db);
  auto baseline =
      MineCorrelations(reference, db.num_items(), TestMinerOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::string fingerprint = Fingerprint(*baseline);
  ASSERT_FALSE(baseline->significant.empty()) << "degenerate fixture";

  for (int shards : {1, 2, 3, 4}) {
    for (int threads : {1, 4}) {
      SessionOptions options;
      options.num_shards = shards;
      options.num_threads = threads;
      auto session = MiningSession::FromDatabase(db, options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      EXPECT_EQ(session->num_shards(), static_cast<size_t>(shards));
      EXPECT_EQ(session->num_baskets(), db.num_baskets());
      auto result = session->Mine(TestMinerOptions());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Fingerprint(*result), fingerprint)
          << "shards " << shards << " threads " << threads;
    }
  }
}

TEST(MiningSessionTest, InvalidOptionsRejected) {
  TransactionDatabase db = SeededQuest(7);
  SessionOptions negative_threads;
  negative_threads.num_threads = -1;
  EXPECT_FALSE(MiningSession::FromDatabase(db, negative_threads).ok());
  SessionOptions negative_shards;
  negative_shards.num_shards = -3;
  EXPECT_FALSE(MiningSession::FromDatabase(db, negative_shards).ok());
}

TEST(MiningSessionTest, OpensTextAndBinaryFiles) {
  TransactionDatabase db = SeededQuest(42);
  std::string text_path = ::testing::TempDir() + "/session_open.txt";
  ASSERT_TRUE(io::WriteTransactionFile(db, text_path).ok());
  std::string bin_path = ::testing::TempDir() + "/session_open.bin";
  ASSERT_TRUE(io::WriteBinaryTransactionFile(db, bin_path).ok());

  auto baseline = MiningSession::FromDatabase(db, {});
  ASSERT_TRUE(baseline.ok());
  auto expected = baseline->Mine(TestMinerOptions());
  ASSERT_TRUE(expected.ok());

  for (const std::string& path : {text_path, bin_path}) {
    SessionOptions options;
    options.num_shards = 3;
    auto session = MiningSession::Open(path, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto result = session->Mine(TestMinerOptions());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Fingerprint(*result), Fingerprint(*expected)) << path;
  }
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());

  EXPECT_FALSE(MiningSession::Open("/nonexistent/baskets.txt", {}).ok());
}

TEST(MiningSessionTest, FrequentMinersAgreeWithMonolithicBaseline) {
  TransactionDatabase db = SeededQuest(1997);
  BitmapCountProvider provider(db);
  AprioriOptions apriori;
  apriori.min_support_fraction = 0.02;
  apriori.max_level = 3;
  auto expected = MineFrequentItemsets(provider, db.num_items(), apriori);
  ASSERT_TRUE(expected.ok());

  SessionOptions options;
  options.num_shards = 3;
  options.num_threads = 2;
  auto session = MiningSession::FromDatabase(db, options);
  ASSERT_TRUE(session.ok());
  auto frequent = session->MineFrequent(apriori);
  ASSERT_TRUE(frequent.ok()) << frequent.status().ToString();
  ASSERT_EQ(frequent->size(), expected->size());

  EclatOptions eclat;
  eclat.min_support_fraction = 0.02;
  eclat.max_level = 3;
  auto eclat_frequent = session->MineFrequentEclat(eclat);
  ASSERT_TRUE(eclat_frequent.ok()) << eclat_frequent.status().ToString();
  ASSERT_EQ(eclat_frequent->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*eclat_frequent)[i].itemset, (*expected)[i].itemset);
    EXPECT_EQ((*eclat_frequent)[i].count, (*expected)[i].count);
  }
}

// Delta ingestion through the facade: AppendBatch must leave the session
// indistinguishable from one opened over the concatenated data, for every
// shard layout.
TEST(MiningSessionTest, AppendBatchMatchesFromScratchSession) {
  TransactionDatabase base = SeededQuest(1997);
  TransactionDatabase delta = SeededQuest(4711);
  TransactionDatabase combined = SeededQuest(1997);
  for (size_t row = 0; row < delta.num_baskets(); ++row) {
    ASSERT_TRUE(combined.AddBasket(delta.basket(row)).ok());
  }

  for (int shards : {1, 2, 3}) {
    SessionOptions options;
    options.num_shards = shards;
    auto session = MiningSession::FromDatabase(base, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    // Mine the session over the base rows first.
    ASSERT_TRUE(session->Mine(TestMinerOptions()).ok());
    ASSERT_TRUE(session->AppendBatch(delta).ok());
    EXPECT_EQ(session->num_baskets(),
              base.num_baskets() + delta.num_baskets());

    auto scratch = MiningSession::FromDatabase(combined, options);
    ASSERT_TRUE(scratch.ok());
    auto appended_result = session->Mine(TestMinerOptions());
    ASSERT_TRUE(appended_result.ok()) << appended_result.status().ToString();
    auto scratch_result = scratch->Mine(TestMinerOptions());
    ASSERT_TRUE(scratch_result.ok());
    EXPECT_EQ(Fingerprint(*appended_result), Fingerprint(*scratch_result))
        << "shards " << shards;
  }
}

// The session keeps no row store: Flatten and ReadRows transpose the
// per-shard bitmaps back into rows, for any K, before and after an append
// that widens the item space, and from a multi-segment CMB1 file.
TEST(MiningSessionTest, ReadsRowsBackFromTheBitmaps) {
  TransactionDatabase base = SeededQuest(1997);
  TransactionDatabase delta(base.num_items() + 5);
  ASSERT_TRUE(delta.AddBasket({0, base.num_items() + 4}).ok());
  ASSERT_TRUE(delta.AddBasket({}).ok());
  ASSERT_TRUE(delta.AddBasket({3, 4, base.num_items()}).ok());
  Rows expected = RowsOf(base);
  for (size_t row = 0; row < delta.num_baskets(); ++row) {
    expected.push_back(delta.basket(row));
  }
  const std::string path = ::testing::TempDir() + "/session_segments.bin";
  ASSERT_TRUE(io::WriteStringToFile(io::EncodeBinaryTransactions(base) +
                                        io::EncodeBinaryTransactions(delta),
                                    path)
                  .ok());

  for (int shards : {1, 2, 3, 7}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    SessionOptions options;
    options.num_shards = shards;
    auto session = MiningSession::FromDatabase(base, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(RowsOf(session->Flatten()), RowsOf(base));
    ASSERT_TRUE(session->AppendBatch(delta).ok());
    const TransactionDatabase flat = session->Flatten();
    EXPECT_EQ(flat.num_items(), delta.num_items());
    EXPECT_EQ(RowsOf(flat), expected);
    // Any range, including ones that start and end inside a shard's word.
    for (const auto& [begin, end] :
         std::vector<std::pair<uint64_t, uint64_t>>{
             {0, 0}, {5, 6}, {63, 131}, {base.num_baskets() - 1,
                                          expected.size()}}) {
      const Rows range = RowsOf(session->ReadRows(begin, end));
      EXPECT_EQ(range, Rows(expected.begin() + begin, expected.begin() + end))
          << "[" << begin << ", " << end << ")";
    }

    auto opened = MiningSession::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->num_items(), delta.num_items());
    EXPECT_EQ(RowsOf(opened->Flatten()), expected);

    // A run of small appends, some inside the growth slack and some past
    // it, leaves the same rows and counts as one session over them all.
    Rows grown = expected;
    TransactionDatabase all(delta.num_items());
    for (const std::vector<ItemId>& row : expected) {
      ASSERT_TRUE(all.AddBasket(row).ok());
    }
    for (int chunk = 0; chunk < 12; ++chunk) {
      TransactionDatabase small = SeededQuest(100 + chunk);
      TransactionDatabase head(small.num_items());
      for (size_t row = 0; row < 40; ++row) {
        ASSERT_TRUE(head.AddBasket(small.basket(row)).ok());
        ASSERT_TRUE(all.AddBasket(small.basket(row)).ok());
        grown.push_back(small.basket(row));
      }
      ASSERT_TRUE(session->AppendBatch(head).ok());
    }
    EXPECT_EQ(RowsOf(session->Flatten()), grown);
    auto scratch = MiningSession::FromDatabase(all, options);
    ASSERT_TRUE(scratch.ok());
    auto appended_result = session->Mine(TestMinerOptions());
    auto scratch_result = scratch->Mine(TestMinerOptions());
    ASSERT_TRUE(appended_result.ok() && scratch_result.ok());
    EXPECT_EQ(Fingerprint(*appended_result), Fingerprint(*scratch_result));
  }
  std::remove(path.c_str());
}

// A sharded mine records the provider's run-health telemetry: the shard
// count, the index bytes, the per-shard batch times and their skew.
TEST(MiningSessionTest, TwoShardMineRecordsShardTelemetry) {
  MetricsRegistry::Global().Reset();
  SessionOptions options;
  options.num_shards = 2;
  auto session = MiningSession::FromDatabase(SeededQuest(1997), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Mine(TestMinerOptions()).ok());

  const MetricsRegistry::Snapshot snap = MetricsRegistry::Global().Snap();
  ASSERT_EQ(snap.gauges.count("sharded.shards"), 1u);
  EXPECT_EQ(snap.gauges.at("sharded.shards"), 2);
  ASSERT_EQ(snap.gauges.count("mem.shard_index_bytes"), 1u);
  EXPECT_GT(snap.gauges.at("mem.shard_index_bytes"), 0);
  // max/mean of the per-shard batch times, so at least 1 (x1000).
  ASSERT_EQ(snap.gauges.count("sharded.batch_imbalance_x1000"), 1u);
  EXPECT_GE(snap.gauges.at("sharded.batch_imbalance_x1000"), 1000);
  ASSERT_EQ(snap.histograms.count("sharded.shard_batch_ns"), 1u);
  EXPECT_GT(snap.histograms.at("sharded.shard_batch_ns").count, 0u);
}

TEST(MiningSessionTest, LevelWiseMinerStaysOnBatchPath) {
  TransactionDatabase db = SeededQuest(1997);

  // The batch-per-level contract (DESIGN.md §7): no per-candidate scalar
  // counts, and exactly one batch per level — the singleton marginals batch
  // plus one per mined level. And one count per candidate: every proper
  // subset's count is looked up from an earlier level, so the batches
  // carry the items plus each level's candidates, nothing else.
  SessionOptions options;
  options.num_shards = 2;
  auto session = MiningSession::FromDatabase(db, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  auto result = session->Mine(TestMinerOptions());
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(registry.GetCounter("count_provider.scalar_calls")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("count_provider.batch_calls")->Value(),
            result->levels.size() + 1);
  uint64_t queries = db.num_items();
  for (const LevelStats& level : result->levels) {
    queries += level.candidates;
  }
  EXPECT_EQ(registry.GetCounter("count_provider.batch_queries")->Value(),
            queries);
}

}  // namespace
}  // namespace corrmine
