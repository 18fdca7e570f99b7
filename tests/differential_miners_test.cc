// Differential testing across the independent mining implementations: the
// same database must yield the same frequent itemsets from Apriori, Eclat
// and a from-scratch brute-force enumerator, and the same
// chi-squared verdicts from every CountProvider and from the reference
// miner. Any two implementations share almost no code, so agreement here is
// strong evidence of correctness; disagreement pinpoints the liar.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/chi_squared_miner.h"
#include "datagen/quest_generator.h"
#include "datagen/rng.h"
#include "itemset/count_provider.h"
#include "itemset/sharded_database.h"
#include "mining/apriori.h"
#include "mining/eclat.h"

namespace corrmine {
namespace {

/// Canonical form for comparing frequent-itemset results: map from itemset
/// to count (the vectors differ in order across algorithms by design).
std::map<Itemset, uint64_t> AsMap(const std::vector<FrequentItemset>& v) {
  std::map<Itemset, uint64_t> m;
  for (const FrequentItemset& f : v) {
    auto [it, inserted] = m.emplace(f.itemset, f.count);
    EXPECT_TRUE(inserted) << "duplicate itemset " << f.itemset.ToString();
  }
  return m;
}

/// Reference enumerator sharing no code with the miners: materializes every
/// itemset up to `max_level` by recursive extension, counting via linear
/// basket scans.
void BruteForceExtend(const TransactionDatabase& db, uint64_t min_count,
                      int max_level, const Itemset& prefix, ItemId first,
                      std::map<Itemset, uint64_t>* out) {
  for (ItemId item = first; item < db.num_items(); ++item) {
    Itemset candidate = prefix.WithItem(item);
    uint64_t count = 0;
    for (size_t row = 0; row < db.num_baskets(); ++row) {
      const std::vector<ItemId>& basket = db.basket(row);
      bool all = true;
      for (size_t j = 0; j < candidate.size(); ++j) {
        if (!std::binary_search(basket.begin(), basket.end(),
                                candidate.item(j))) {
          all = false;
          break;
        }
      }
      if (all) ++count;
    }
    if (count < min_count) continue;  // Supersets can't be frequent either.
    out->emplace(candidate, count);
    if (max_level == 0 || static_cast<int>(candidate.size()) < max_level) {
      BruteForceExtend(db, min_count, max_level, candidate, item + 1, out);
    }
  }
}

TransactionDatabase SeededQuest(uint64_t seed) {
  datagen::QuestOptions quest;
  quest.num_transactions = 800;
  quest.num_items = 40;
  quest.avg_transaction_size = 6.0;
  quest.num_patterns = 10;
  quest.seed = seed;
  auto db = datagen::GenerateQuestData(quest);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

TEST(DifferentialMinersTest, ThreeImplementationsAgreeOnFrequentItemsets) {
  for (uint64_t seed : {1997u, 42u, 7u}) {
    TransactionDatabase db = SeededQuest(seed);
    constexpr double kMinSupport = 0.02;
    constexpr int kMaxLevel = 4;
    uint64_t min_count = static_cast<uint64_t>(
        std::ceil(kMinSupport * static_cast<double>(db.num_baskets()) -
                  1e-9));

    BitmapCountProvider provider(db);
    AprioriOptions apriori;
    apriori.min_support_fraction = kMinSupport;
    apriori.max_level = kMaxLevel;
    auto from_apriori =
        MineFrequentItemsets(provider, db.num_items(), apriori);
    ASSERT_TRUE(from_apriori.ok()) << from_apriori.status().ToString();

    EclatOptions eclat;
    eclat.min_support_fraction = kMinSupport;
    eclat.max_level = kMaxLevel;
    auto from_eclat = MineFrequentItemsetsEclat(db, eclat);
    ASSERT_TRUE(from_eclat.ok()) << from_eclat.status().ToString();

    std::map<Itemset, uint64_t> reference;
    BruteForceExtend(db, min_count, kMaxLevel, Itemset{}, 0, &reference);

    std::map<Itemset, uint64_t> apriori_map = AsMap(*from_apriori);
    std::map<Itemset, uint64_t> eclat_map = AsMap(*from_eclat);

    EXPECT_FALSE(reference.empty()) << "degenerate fixture at seed " << seed;
    EXPECT_EQ(apriori_map, reference) << "apriori diverged at seed " << seed;
    EXPECT_EQ(eclat_map, reference) << "eclat diverged at seed " << seed;
  }
}

TEST(DifferentialMinersTest, AprioriIdenticalAcrossCountProviders) {
  TransactionDatabase db = SeededQuest(1997);
  ScanCountProvider scan(db);
  BitmapCountProvider bitmap(db);

  AprioriOptions options;
  options.min_support_fraction = 0.02;
  options.max_level = 3;
  auto from_scan = MineFrequentItemsets(scan, db.num_items(), options);
  auto from_bitmap = MineFrequentItemsets(bitmap, db.num_items(), options);
  ASSERT_TRUE(from_scan.ok());
  ASSERT_TRUE(from_bitmap.ok());
  EXPECT_EQ(AsMap(*from_scan), AsMap(*from_bitmap));
}

/// Fingerprint of a mining result, including the new LevelStats columns —
/// two results agree iff rules, statistics and per-level accounting match.
std::string MiningFingerprint(const MiningResult& result) {
  std::string out;
  for (const CorrelationRule& rule : result.significant) {
    out += rule.itemset.ToString() + ":" +
           std::to_string(rule.chi2.statistic) + ";";
  }
  for (const LevelStats& level : result.levels) {
    out += std::to_string(level.level) + "/" +
           std::to_string(level.candidates) + "/" +
           std::to_string(level.discards) + "/" +
           std::to_string(level.chi2_tests) + "/" +
           std::to_string(level.masked_cells) + "/" +
           std::to_string(level.significant) + "/" +
           std::to_string(level.not_significant) + ";";
  }
  return out;
}

TEST(DifferentialMinersTest, ChiSquaredVerdictsIdenticalAcrossProviders) {
  TransactionDatabase db = SeededQuest(42);
  ScanCountProvider scan(db);
  BitmapCountProvider bitmap(db);

  MinerOptions options;
  options.support.min_count = 10;
  options.support.cell_fraction = 0.25;
  // Exercise the §3.3 masking path too, so masked-cell accounting is part
  // of the cross-provider contract.
  options.chi2.min_expected_cell = 1.0;

  auto from_scan = MineCorrelations(scan, db.num_items(), options);
  auto from_bitmap = MineCorrelations(bitmap, db.num_items(), options);
  ASSERT_TRUE(from_scan.ok()) << from_scan.status().ToString();
  ASSERT_TRUE(from_bitmap.ok());

  std::string fingerprint = MiningFingerprint(*from_scan);
  EXPECT_FALSE(from_scan->significant.empty()) << "degenerate fixture";
  EXPECT_EQ(MiningFingerprint(*from_bitmap), fingerprint);
}

// The K-invariance contract (DESIGN.md §7), end to end: rules, statistics
// and per-level accounting must be byte-identical whether the dataset lives
// in one piece or in K shards, and whatever the thread count.
TEST(DifferentialMinersTest, VerdictsIdenticalAcrossShardsAndThreads) {
  TransactionDatabase db = SeededQuest(1997);
  BitmapCountProvider reference(db);

  MinerOptions options;
  options.support.min_count = 10;
  options.support.cell_fraction = 0.25;
  options.chi2.min_expected_cell = 1.0;

  auto baseline = MineCorrelations(reference, db.num_items(), options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::string fingerprint = MiningFingerprint(*baseline);
  ASSERT_FALSE(baseline->significant.empty()) << "degenerate fixture";

  for (size_t shards : {1, 2, 4, 7}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Partition(db, shards);
    ShardedCountProvider provider(sharded);
    for (int threads : {1, 8}) {
      MinerOptions run = options;
      run.num_threads = threads;
      auto result = MineCorrelations(provider, db.num_items(), run);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(MiningFingerprint(*result), fingerprint)
          << "shards " << shards << " threads " << threads;
    }
  }
}

// Shard-native Eclat must reproduce the monolithic miner's itemsets and
// counts exactly, for any K and thread count.
TEST(DifferentialMinersTest, ShardedEclatMatchesMonolithic) {
  TransactionDatabase db = SeededQuest(42);
  EclatOptions options;
  options.min_support_fraction = 0.02;
  options.max_level = 4;
  auto baseline = MineFrequentItemsetsEclat(db, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (size_t shards : {1, 3, 7}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Partition(db, shards);
    for (int threads : {1, 8}) {
      EclatOptions run = options;
      run.num_threads = threads;
      auto result = MineFrequentItemsetsEclat(sharded, run);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->size(), baseline->size())
          << "shards " << shards << " threads " << threads;
      for (size_t i = 0; i < baseline->size(); ++i) {
        ASSERT_EQ((*result)[i].itemset, (*baseline)[i].itemset);
        ASSERT_EQ((*result)[i].count, (*baseline)[i].count);
      }
    }
  }
}

/// The level-wise miner's rules and level stats against the brute-force
/// reference's. The brute-force miner enumerates in lexicographic order per
/// level; the level-wise miner streams joins. Compare as sets plus level
/// stats.
void ExpectMatchesBruteForce(const MiningResult& level_wise,
                             const MiningResult& brute) {
  auto sorted_rules = [](const MiningResult& r) {
    std::vector<std::pair<Itemset, double>> rules;
    for (const CorrelationRule& rule : r.significant) {
      rules.emplace_back(rule.itemset, rule.chi2.statistic);
    }
    std::sort(rules.begin(), rules.end());
    return rules;
  };
  EXPECT_EQ(sorted_rules(level_wise), sorted_rules(brute));
  ASSERT_EQ(level_wise.levels.size(), brute.levels.size());
  for (size_t i = 0; i < level_wise.levels.size(); ++i) {
    const LevelStats& a = level_wise.levels[i];
    const LevelStats& b = brute.levels[i];
    EXPECT_EQ(a.candidates, b.candidates) << "level " << a.level;
    EXPECT_EQ(a.discards, b.discards) << "level " << a.level;
    EXPECT_EQ(a.chi2_tests, b.chi2_tests) << "level " << a.level;
    EXPECT_EQ(a.masked_cells, b.masked_cells) << "level " << a.level;
    EXPECT_EQ(a.significant, b.significant) << "level " << a.level;
    EXPECT_EQ(a.not_significant, b.not_significant) << "level " << a.level;
  }
}

TEST(DifferentialMinersTest, LevelWiseMatchesBruteForceMiner) {
  TransactionDatabase db = SeededQuest(7);
  BitmapCountProvider provider(db);

  MinerOptions options;
  options.support.min_count = 10;
  options.support.cell_fraction = 0.25;
  options.chi2.min_expected_cell = 1.0;

  auto level_wise = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(level_wise.ok()) << level_wise.status().ToString();
  auto brute = MineCorrelationsBruteForce(provider, db.num_items(), options,
                                          /*max_level=*/4);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  ExpectMatchesBruteForce(*level_wise, *brute);
}

// A lattice five levels deep: level 5's candidates are joined from level
// 4's NOTSIG members, so evaluating them follows the subset indexes Step 8
// carried from level 5 down through levels 4 and 3 to level 2. Three items
// share a latent cause and the other nine are independent, and the strict
// cutoff keeps most small sets NOTSIG, so every level past 2 holds
// hundreds of candidates with discards, SIG and NOTSIG at level 5.
TEST(DifferentialMinersTest, LevelWiseMatchesBruteForceMinerToLevelFive) {
  datagen::Rng rng(3);
  TransactionDatabase db(12);
  for (int row = 0; row < 850; ++row) {
    const bool cause = rng.NextBelow(2) == 0;
    std::vector<ItemId> basket;
    for (ItemId i = 0; i < db.num_items(); ++i) {
      const uint64_t percent = i < 3 ? (cause ? 75 : 25) : 25 + 3 * i;
      if (rng.NextBelow(100) < percent) basket.push_back(i);
    }
    ASSERT_TRUE(db.AddBasket(std::move(basket)).ok());
  }
  BitmapCountProvider provider(db);

  MinerOptions options;
  options.confidence_level = 0.9999;
  options.support.min_count = 25;
  options.support.cell_fraction = 0.5;
  options.chi2.min_expected_cell = 1.0;
  options.max_level = 5;
  auto brute = MineCorrelationsBruteForce(provider, db.num_items(), options,
                                          /*max_level=*/5);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  ASSERT_EQ(brute->levels.size(), 4u);
  EXPECT_GT(brute->levels[2].not_significant, 0u);
  EXPECT_GT(brute->levels[3].candidates, 0u);
  EXPECT_GT(brute->levels[3].discards, 0u);
  EXPECT_GT(brute->levels[3].not_significant, 0u);
  for (int threads : {1, 4}) {
    options.num_threads = threads;
    auto level_wise = MineCorrelations(provider, db.num_items(), options);
    ASSERT_TRUE(level_wise.ok()) << level_wise.status().ToString();
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectMatchesBruteForce(*level_wise, *brute);
  }
}

}  // namespace
}  // namespace corrmine
