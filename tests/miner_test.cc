#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "cube/datacube.h"
#include "core/chi_squared_miner.h"
#include "datagen/census_generator.h"
#include "datagen/quest_generator.h"
#include "test_util.h"

namespace corrmine {
namespace {

std::set<Itemset> SignificantSets(const MiningResult& result) {
  std::set<Itemset> sets;
  for (const auto& rule : result.significant) sets.insert(rule.itemset);
  return sets;
}

TEST(BinomialCountTest, SmallValuesAndSaturation) {
  EXPECT_EQ(BinomialCount(870, 2), 378015u);
  EXPECT_EQ(BinomialCount(870, 3), 109372340u);
  EXPECT_EQ(BinomialCount(10, 0), 1u);
  EXPECT_EQ(BinomialCount(10, 10), 1u);
  EXPECT_EQ(BinomialCount(5, 6), 0u);
  EXPECT_EQ(BinomialCount(10000, 20), UINT64_MAX);  // Saturates.
}

TEST(MinerTest, FindsPlantedCorrelation) {
  auto db = testing::RandomCorrelatedDatabase(5, 500, 0.95, 42);
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.support.min_count = 5;
  options.support.cell_fraction = 0.26;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok());
  auto sets = SignificantSets(*result);
  EXPECT_TRUE(sets.count(Itemset{0, 1}))
      << "planted pair {0,1} not found among " << sets.size() << " results";
}

TEST(MinerTest, NullDataYieldsFewPairCorrelations) {
  auto db = testing::RandomIndependentDatabase(8, 400, 7);
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.confidence_level = 0.999;  // Harsh cutoff on null data.
  options.support.min_count = 4;
  options.support.cell_fraction = 0.26;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok());
  // 28 pairs tested at the 0.1% level: expect at most ~1 false positive at
  // level 2. Deeper levels are a different story: the paper's fixed
  // one-dof cutoff is compared against a statistic summed over 2^k cells,
  // which inflates with k even on independent data — the flip side of
  // Theorem 1's monotonicity, and why the paper mines *minimal* correlated
  // sets on data with low borders rather than deep lattices of noise.
  ASSERT_FALSE(result->levels.empty());
  EXPECT_LE(result->levels[0].significant, 1u);
}

TEST(MinerTest, SignificantSetsAreMinimalInOutput) {
  auto db = testing::RandomCorrelatedDatabase(6, 400, 0.9, 13);
  BitmapCountProvider provider(db);
  auto result = MineCorrelations(provider, db.num_items());
  ASSERT_TRUE(result.ok());
  auto sets = SignificantSets(*result);
  for (const Itemset& s : sets) {
    for (const Itemset& t : sets) {
      if (s == t) continue;
      EXPECT_FALSE(s.ContainsAll(t))
          << s.ToString() << " contains reported set " << t.ToString();
    }
  }
}

TEST(MinerTest, LevelStatsAreConsistent) {
  auto db = testing::RandomCorrelatedDatabase(6, 300, 0.8, 3);
  BitmapCountProvider provider(db);
  auto result = MineCorrelations(provider, db.num_items());
  ASSERT_TRUE(result.ok());
  for (const LevelStats& stats : result->levels) {
    EXPECT_EQ(stats.candidates,
              stats.discards + stats.significant + stats.not_significant);
    EXPECT_LE(stats.candidates, stats.possible_itemsets);
  }
  ASSERT_FALSE(result->levels.empty());
  EXPECT_EQ(result->levels[0].level, 2);
  EXPECT_EQ(result->levels[0].possible_itemsets, BinomialCount(6, 2));
}

TEST(MinerTest, MaxLevelStopsSearch) {
  auto db = testing::RandomIndependentDatabase(6, 200, 19);
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.max_level = 2;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->levels.size(), 1u);
}

TEST(MinerTest, RejectsBadOptions) {
  auto db = testing::RandomIndependentDatabase(3, 50, 1);
  BitmapCountProvider provider(db);
  MinerOptions bad;
  bad.confidence_level = 1.5;
  EXPECT_TRUE(MineCorrelations(provider, 3, bad).status().IsInvalidArgument());
  MinerOptions bad2;
  bad2.support.cell_fraction = 0.0;
  EXPECT_TRUE(
      MineCorrelations(provider, 3, bad2).status().IsInvalidArgument());
  // A negative level cap is an error, not "no limit" (0 is the only
  // spelling of that).
  MinerOptions bad3;
  bad3.max_level = -1;
  EXPECT_TRUE(
      MineCorrelations(provider, 3, bad3).status().IsInvalidArgument());
  TransactionDatabase empty(3);
  ScanCountProvider empty_provider(empty);
  EXPECT_TRUE(MineCorrelations(empty_provider, 3, MinerOptions())
                  .status()
                  .IsFailedPrecondition());
}

// Property: the optimized level-wise miner matches the exhaustive recursive
// definition exactly — sets, per-level statistics, everything.
struct EquivalenceCase {
  uint64_t seed;
  LevelOnePruning pruning;
};

class MinerEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(MinerEquivalence, LevelWiseMatchesBruteForce) {
  const EquivalenceCase& param = GetParam();
  auto db = testing::RandomCorrelatedDatabase(7, 200, 0.7, param.seed);
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.support.min_count = 3;
  options.support.cell_fraction = 0.26;
  options.level_one = param.pruning;

  auto fast = MineCorrelations(provider, db.num_items(), options);
  auto slow = MineCorrelationsBruteForce(provider, db.num_items(), options);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());

  EXPECT_EQ(SignificantSets(*fast), SignificantSets(*slow));
  ASSERT_EQ(fast->levels.size(), slow->levels.size());
  for (size_t i = 0; i < fast->levels.size(); ++i) {
    EXPECT_EQ(fast->levels[i].candidates, slow->levels[i].candidates)
        << "level " << fast->levels[i].level;
    EXPECT_EQ(fast->levels[i].discards, slow->levels[i].discards);
    EXPECT_EQ(fast->levels[i].significant, slow->levels[i].significant);
    EXPECT_EQ(fast->levels[i].not_significant,
              slow->levels[i].not_significant);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, MinerEquivalence,
    ::testing::Values(
        EquivalenceCase{1, LevelOnePruning::kFigure1Strict},
        EquivalenceCase{2, LevelOnePruning::kFigure1Strict},
        EquivalenceCase{3, LevelOnePruning::kFeasibilityBound},
        EquivalenceCase{4, LevelOnePruning::kFeasibilityBound},
        EquivalenceCase{5, LevelOnePruning::kNone},
        EquivalenceCase{6, LevelOnePruning::kFigure1Strict},
        EquivalenceCase{7, LevelOnePruning::kFeasibilityBound},
        EquivalenceCase{8, LevelOnePruning::kNone}));

// Property: results of the miner are all supported and correlated, and no
// immediate subset of a reported set is both supported and uncorrelated...
// (that is what put it in SIG rather than deeper).
class MinerSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinerSoundness, ReportedSetsAreSupportedAndCorrelated) {
  auto db = testing::RandomCorrelatedDatabase(6, 350, 0.85, GetParam());
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.support.min_count = 4;
  options.support.cell_fraction = 0.26;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok());
  for (const CorrelationRule& rule : result->significant) {
    auto table = ContingencyTable::Build(provider, rule.itemset);
    ASSERT_TRUE(table.ok());
    EXPECT_TRUE(HasCellSupport(*table, options.support));
    ChiSquaredResult chi2 = ComputeChiSquared(*table, options.chi2);
    EXPECT_TRUE(chi2.SignificantAt(options.confidence_level));
    EXPECT_NEAR(chi2.statistic, rule.chi2.statistic, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinerSoundness,
                         ::testing::Values(11, 22, 33, 44));

TEST(MinerFrontierTest, FrontierSetsAreSupportedAndUncorrelated) {
  auto db = testing::RandomCorrelatedDatabase(6, 300, 0.8, 17);
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.support.min_count = 4;
  options.support.cell_fraction = 0.26;
  options.keep_frontier = true;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok());
  for (const Itemset& s : result->frontier) {
    auto table = ContingencyTable::Build(provider, s);
    ASSERT_TRUE(table.ok());
    EXPECT_TRUE(HasCellSupport(*table, options.support));
    EXPECT_FALSE(ComputeChiSquared(*table, options.chi2)
                     .SignificantAt(options.confidence_level))
        << s.ToString();
  }
  // Sorted output.
  for (size_t i = 1; i < result->frontier.size(); ++i) {
    EXPECT_LT(result->frontier[i - 1], result->frontier[i]);
  }
}

TEST(MinerFrontierTest, EmptyUnlessRequested) {
  auto db = testing::RandomCorrelatedDatabase(5, 200, 0.8, 19);
  BitmapCountProvider provider(db);
  auto result = MineCorrelations(provider, db.num_items());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->frontier.empty());
}

TEST(MinerFrontierTest, FrontierAtMaxLevelMatchesNotSigCount) {
  auto db = testing::RandomIndependentDatabase(6, 250, 23);
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.support.min_count = 3;
  options.support.cell_fraction = 0.26;
  options.max_level = 2;
  options.keep_frontier = true;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->levels.size(), 1u);
  EXPECT_EQ(result->frontier.size(), result->levels[0].not_significant);
}

// Field-by-field equality of two mining results, down to bitwise-equal
// doubles: the determinism contract promises byte-identical output for any
// thread count, not merely "statistically the same".
void ExpectIdenticalResults(const MiningResult& a, const MiningResult& b) {
  ASSERT_EQ(a.significant.size(), b.significant.size());
  for (size_t i = 0; i < a.significant.size(); ++i) {
    const CorrelationRule& ra = a.significant[i];
    const CorrelationRule& rb = b.significant[i];
    EXPECT_EQ(ra.itemset, rb.itemset) << "SIG order diverged at " << i;
    EXPECT_EQ(ra.chi2.statistic, rb.chi2.statistic);
    EXPECT_EQ(ra.chi2.dof, rb.chi2.dof);
    EXPECT_EQ(ra.chi2.p_value, rb.chi2.p_value);
    EXPECT_EQ(ra.major_dependence.mask, rb.major_dependence.mask);
    EXPECT_EQ(ra.major_dependence.observed, rb.major_dependence.observed);
    EXPECT_EQ(ra.major_dependence.expected, rb.major_dependence.expected);
  }
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].level, b.levels[i].level);
    EXPECT_EQ(a.levels[i].possible_itemsets, b.levels[i].possible_itemsets);
    EXPECT_EQ(a.levels[i].candidates, b.levels[i].candidates);
    EXPECT_EQ(a.levels[i].discards, b.levels[i].discards);
    EXPECT_EQ(a.levels[i].significant, b.levels[i].significant);
    EXPECT_EQ(a.levels[i].not_significant, b.levels[i].not_significant);
  }
  EXPECT_EQ(a.frontier, b.frontier);
}

// Parallel evaluation must be invisible in the output: threads=4 and
// threads=1 give identical MiningResults on the paper-style fixtures.
TEST(MinerDeterminismTest, QuestFixtureParallelMatchesSequential) {
  datagen::QuestOptions quest;
  quest.num_transactions = 3000;
  quest.num_items = 80;
  quest.avg_transaction_size = 8.0;
  quest.num_patterns = 60;
  auto db = datagen::GenerateQuestData(quest);
  ASSERT_TRUE(db.ok());
  BitmapCountProvider provider(*db);
  MinerOptions options;
  options.support.min_count = 30;
  options.support.cell_fraction = 0.26;
  options.keep_frontier = true;

  options.num_threads = 1;
  auto sequential = MineCorrelations(provider, db->num_items(), options);
  options.num_threads = 4;
  auto parallel = MineCorrelations(provider, db->num_items(), options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_FALSE(sequential->significant.empty());
  ExpectIdenticalResults(*sequential, *parallel);
}

TEST(MinerDeterminismTest, CensusFixtureParallelMatchesSequential) {
  datagen::CensusOptions census;
  census.num_persons = 4000;
  auto db = datagen::GenerateCensusData(census);
  ASSERT_TRUE(db.ok());
  BitmapCountProvider provider(*db);
  MinerOptions options;
  options.support.min_count = 40;
  options.support.cell_fraction = 0.26;
  options.keep_frontier = true;

  options.num_threads = 1;
  auto sequential = MineCorrelations(provider, db->num_items(), options);
  options.num_threads = 4;
  auto parallel = MineCorrelations(provider, db->num_items(), options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_FALSE(sequential->significant.empty());
  ExpectIdenticalResults(*sequential, *parallel);
}

TEST(MinerDeterminismTest, ZeroThreadsMeansHardwareConcurrency) {
  auto db = testing::RandomCorrelatedDatabase(6, 200, 0.8, 61);
  BitmapCountProvider provider(db);
  MinerOptions options;
  options.support.min_count = 3;
  options.support.cell_fraction = 0.26;
  options.num_threads = 1;
  auto sequential = MineCorrelations(provider, db.num_items(), options);
  options.num_threads = 0;
  auto hardware = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(hardware.ok());
  ExpectIdenticalResults(*sequential, *hardware);

  MinerOptions bad;
  bad.num_threads = -2;
  EXPECT_TRUE(
      MineCorrelations(provider, db.num_items(), bad).status()
          .IsInvalidArgument());
}

TEST(MinerProviderTest, CubeAndBitmapProvidersAgree) {
  auto db = testing::RandomCorrelatedDatabase(6, 250, 0.8, 29);
  BitmapCountProvider bitmap(db);
  auto cube = DataCube::Build(db, 3);
  ASSERT_TRUE(cube.ok());
  CubeCountProvider cube_provider(*cube, &db);
  MinerOptions options;
  options.support.min_count = 3;
  options.support.cell_fraction = 0.26;
  options.max_level = 3;
  auto via_bitmap = MineCorrelations(bitmap, db.num_items(), options);
  auto via_cube = MineCorrelations(cube_provider, db.num_items(), options);
  ASSERT_TRUE(via_bitmap.ok());
  ASSERT_TRUE(via_cube.ok());
  EXPECT_EQ(SignificantSets(*via_bitmap), SignificantSets(*via_cube));
}

}  // namespace
}  // namespace corrmine
