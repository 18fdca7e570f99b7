// MiningSession facade: one object owning dataset, provider, pool and
// metrics must produce exactly the results of hand-assembled plumbing, for
// any shard/thread configuration — and the level-wise miner running under
// it must stay on the batch counting path (one CountAllPresentBatch per
// level, zero scalar calls).

#include "core/session.h"

#include <cstdio>
#include <string>
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

  for (int shards : {1, 2, 4}) {
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

  for (int shards : {1, 3}) {
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

TEST(MiningSessionTest, LevelWiseMinerStaysOnBatchPath) {
  TransactionDatabase db = SeededQuest(1997);

  // The batch-per-level contract (DESIGN.md §7) holds for EVERY provider
  // strategy: no per-candidate scalar counts, and exactly one batch per
  // level — the singleton marginals batch plus one per mined level. A
  // provider without batch overrides would fall back to scalar counting
  // and fail the scalar_calls == 0 pin. And one count per candidate: every
  // proper subset's count is looked up from an earlier level, so the
  // batches carry the items plus each level's candidates, nothing else.
  for (const SessionProvider provider :
       {SessionProvider::kBitmap, SessionProvider::kCompressed,
        SessionProvider::kScan}) {
    SessionOptions options;
    options.num_shards = 2;
    options.provider = provider;
    auto session = MiningSession::FromDatabase(db, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session->provider_kind(), provider);

    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.Reset();
    auto result = session->Mine(TestMinerOptions());
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(registry.GetCounter("count_provider.scalar_calls")->Value(),
              0u)
        << "provider " << static_cast<int>(provider);
    EXPECT_EQ(registry.GetCounter("count_provider.batch_calls")->Value(),
              result->levels.size() + 1)
        << "provider " << static_cast<int>(provider);
    uint64_t queries = db.num_items();
    for (const LevelStats& level : result->levels) {
      queries += level.candidates;
    }
    EXPECT_EQ(registry.GetCounter("count_provider.batch_queries")->Value(),
              queries)
        << "provider " << static_cast<int>(provider);
  }
}

TEST(MiningSessionTest, AllProvidersAgreeAcrossShardsAndThreads) {
  TransactionDatabase db = SeededQuest(1997);
  BitmapCountProvider reference(db);
  auto baseline =
      MineCorrelations(reference, db.num_items(), TestMinerOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string fingerprint = Fingerprint(*baseline);
  ASSERT_FALSE(baseline->significant.empty()) << "degenerate fixture";

  for (const SessionProvider provider :
       {SessionProvider::kBitmap, SessionProvider::kCompressed,
        SessionProvider::kScan}) {
    for (int shards : {1, 3}) {
      for (int threads : {1, 4}) {
        SessionOptions options;
        options.provider = provider;
        options.num_shards = shards;
        options.num_threads = threads;
        auto session = MiningSession::FromDatabase(db, options);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        auto result = session->Mine(TestMinerOptions());
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(Fingerprint(*result), fingerprint)
            << "provider " << static_cast<int>(provider) << " shards "
            << shards << " threads " << threads;
      }
    }
  }
}

TEST(MiningSessionTest, AppendBatchWorksForEveryProvider) {
  TransactionDatabase base = SeededQuest(1997);
  TransactionDatabase delta = SeededQuest(4711);
  TransactionDatabase combined = SeededQuest(1997);
  for (size_t row = 0; row < delta.num_baskets(); ++row) {
    ASSERT_TRUE(combined.AddBasket(delta.basket(row)).ok());
  }

  for (const SessionProvider provider :
       {SessionProvider::kBitmap, SessionProvider::kCompressed,
        SessionProvider::kScan}) {
    SessionOptions options;
    options.provider = provider;
    options.num_shards = 2;
    auto session = MiningSession::FromDatabase(base, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session->Mine(TestMinerOptions()).ok());
    ASSERT_TRUE(session->AppendBatch(delta).ok());

    auto scratch = MiningSession::FromDatabase(combined, options);
    ASSERT_TRUE(scratch.ok());
    auto appended = session->Mine(TestMinerOptions());
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    auto rebuilt = scratch->Mine(TestMinerOptions());
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(Fingerprint(*appended), Fingerprint(*rebuilt))
        << "provider " << static_cast<int>(provider);
  }
}

}  // namespace
}  // namespace corrmine
