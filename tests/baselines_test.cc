// Tests for the Eclat frequent-itemset baseline against Apriori.

#include <map>

#include <gtest/gtest.h>

#include "mining/apriori.h"
#include "mining/eclat.h"
#include "test_util.h"

namespace corrmine {
namespace {

std::map<Itemset, uint64_t> ToMap(const std::vector<FrequentItemset>& sets) {
  std::map<Itemset, uint64_t> m;
  for (const FrequentItemset& f : sets) m.emplace(f.itemset, f.count);
  return m;
}

std::map<Itemset, uint64_t> AprioriReference(const TransactionDatabase& db,
                                             double min_support,
                                             int max_level = 0) {
  BitmapCountProvider provider(db);
  AprioriOptions options;
  options.min_support_fraction = min_support;
  options.max_level = max_level;
  auto result = MineFrequentItemsets(provider, db.num_items(), options);
  CORRMINE_CHECK(result.ok()) << result.status().ToString();
  return ToMap(*result);
}

class BaselineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineEquivalence, EclatMatchesApriori) {
  auto db = testing::RandomCorrelatedDatabase(9, 300, 0.8, GetParam());
  EclatOptions options;
  options.min_support_fraction = 0.1;
  auto eclat = MineFrequentItemsetsEclat(db, options);
  ASSERT_TRUE(eclat.ok());
  EXPECT_EQ(ToMap(*eclat), AprioriReference(db, 0.1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(BaselineTest, MaxLevelRespectedEverywhere) {
  auto db = testing::RandomCorrelatedDatabase(6, 200, 0.9, 5);
  auto reference = AprioriReference(db, 0.05, 2);
  EclatOptions eclat_opts;
  eclat_opts.min_support_fraction = 0.05;
  eclat_opts.max_level = 2;
  auto eclat = MineFrequentItemsetsEclat(db, eclat_opts);
  ASSERT_TRUE(eclat.ok());
  EXPECT_EQ(ToMap(*eclat), reference);
}

TEST(BaselineTest, InputValidation) {
  TransactionDatabase empty(3);
  EXPECT_TRUE(MineFrequentItemsetsEclat(empty, EclatOptions())
                  .status()
                  .IsFailedPrecondition());
  auto db = testing::RandomIndependentDatabase(3, 30, 1);
  EclatOptions bad;
  bad.min_support_fraction = 0.0;
  EXPECT_TRUE(
      MineFrequentItemsetsEclat(db, bad).status().IsInvalidArgument());
}

}  // namespace
}  // namespace corrmine
