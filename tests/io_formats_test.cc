// Tests for the CSV reader and result serialization.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "io/csv.h"
#include "io/result_io.h"

namespace corrmine::io {
namespace {

// --- CSV ---

constexpr char kCsv[] =
    "color,size\n"
    "red,small\n"
    "red,big\n"
    "blue,big\n"
    "# comment row\n"
    "blue,small\n";

TEST(CsvTest, ParsesHeaderAndCategories) {
  auto db = ParseCategoricalCsv(kCsv);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 4u);
  EXPECT_EQ(db->num_attributes(), 2);
  EXPECT_EQ(db->attribute(0).name, "color");
  ASSERT_EQ(db->attribute(0).arity(), 2);
  EXPECT_EQ(db->attribute(0).categories[0], "red");  // First appearance.
  EXPECT_EQ(db->value(2, 0), 1);                     // blue
  EXPECT_EQ(db->CategoryCount(1, 1), 2u);            // big twice.
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseCategoricalCsv("").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseCategoricalCsv("a,b\n").status().IsInvalidArgument());  // No rows.
  EXPECT_TRUE(ParseCategoricalCsv("a,b\nx\n").status().IsCorruption());
  EXPECT_TRUE(ParseCategoricalCsv("a,b\nx,\n").status().IsCorruption());
  EXPECT_TRUE(ParseCategoricalCsv("a,b\nx,y\n")
                  .status()
                  .IsFailedPrecondition());  // Single-category columns.
}

TEST(CsvTest, FileRoundTrip) {
  auto db = ParseCategoricalCsv(kCsv);
  ASSERT_TRUE(db.ok());
  std::string path = ::testing::TempDir() + "/corrmine_csv_test.csv";
  ASSERT_TRUE(WriteCategoricalCsv(*db, path).ok());
  auto reloaded = ReadCategoricalCsv(path);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->num_rows(), db->num_rows());
  for (size_t row = 0; row < db->num_rows(); ++row) {
    for (int a = 0; a < db->num_attributes(); ++a) {
      EXPECT_EQ(reloaded->value(row, a), db->value(row, a));
    }
  }
  std::remove(path.c_str());
}

// --- Result serialization ---

MiningResult SampleResult() {
  MiningResult result;
  LevelStats level;
  level.level = 2;
  level.possible_itemsets = 45;
  level.candidates = 40;
  level.discards = 3;
  level.significant = 12;
  level.not_significant = 25;
  result.levels.push_back(level);
  CorrelationRule rule;
  rule.itemset = Itemset{3, 7, 11};
  rule.chi2.statistic = 123.456;
  rule.chi2.p_value = 1.25e-7;
  rule.chi2.dof = 1;
  rule.major_dependence.mask = 0b101;
  rule.major_dependence.interest = 2.5;
  result.significant.push_back(rule);
  return result;
}

TEST(ResultIoTest, RoundTrip) {
  MiningResult original = SampleResult();
  auto parsed = ParseMiningResult(SerializeMiningResult(original));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->levels.size(), 1u);
  EXPECT_EQ(parsed->levels[0].candidates, 40u);
  EXPECT_EQ(parsed->levels[0].not_significant, 25u);
  ASSERT_EQ(parsed->significant.size(), 1u);
  const CorrelationRule& rule = parsed->significant[0];
  EXPECT_EQ(rule.itemset, (Itemset{3, 7, 11}));
  EXPECT_DOUBLE_EQ(rule.chi2.statistic, 123.456);
  EXPECT_DOUBLE_EQ(rule.chi2.p_value, 1.25e-7);
  EXPECT_EQ(rule.major_dependence.mask, 0b101u);
  EXPECT_DOUBLE_EQ(rule.major_dependence.interest, 2.5);
}

TEST(ResultIoTest, FileRoundTrip) {
  MiningResult original = SampleResult();
  std::string path = ::testing::TempDir() + "/corrmine_result_test.txt";
  ASSERT_TRUE(WriteMiningResult(original, path).ok());
  auto parsed = ReadMiningResult(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->significant.size(), 1u);
  std::remove(path.c_str());
}

TEST(ResultIoTest, RuleLinesMatchPrintfFormatting) {
  // The rule format is printf's: "%.17g" doubles and decimal integers. The
  // writer formats with std::to_chars, which must reproduce it byte for
  // byte — on signed zeros, denormals, infinities, NaNs and random bit
  // patterns across every exponent.
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.5, 0.1, 1e17, 1e-5, 123.456, 1.25e-7,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t bits = rng();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
    values.push_back(unit(rng) * 1000.0);
  }
  MiningResult result;
  LevelStats level;
  level.level = 2;
  level.possible_itemsets = UINT64_MAX;
  level.candidates = 40;
  result.levels.push_back(level);
  std::string expected = "# corrmine result v1\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "level %d %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 "\n",
                level.level, level.possible_itemsets, level.candidates,
                level.discards, level.significant, level.not_significant);
  expected += buf;
  for (size_t i = 0; i + 2 < values.size(); i += 3) {
    CorrelationRule rule;
    const auto item = static_cast<ItemId>(i);
    rule.itemset = Itemset{item, item + 1, UINT32_MAX};
    rule.chi2.statistic = values[i];
    rule.chi2.p_value = values[i + 1];
    rule.chi2.dof = i % 2 == 0 ? 1 : INT64_MAX;
    rule.major_dependence.mask = static_cast<uint32_t>(i) | 0x80000000u;
    rule.major_dependence.interest = values[i + 2];
    std::snprintf(buf, sizeof(buf),
                  "rule %.17g %.17g %" PRId64 " %u %.17g %u %u %u\n",
                  rule.chi2.statistic, rule.chi2.p_value, rule.chi2.dof,
                  rule.major_dependence.mask,
                  rule.major_dependence.interest, item, item + 1,
                  UINT32_MAX);
    expected += buf;
    result.significant.push_back(std::move(rule));
  }
  EXPECT_EQ(SerializeMiningResult(result), expected);
}

TEST(ResultIoTest, RejectsGarbage) {
  EXPECT_TRUE(ParseMiningResult("bogus 1 2 3\n").status().IsCorruption());
  EXPECT_TRUE(ParseMiningResult("level 2 45\n").status().IsCorruption());
  EXPECT_FALSE(ParseMiningResult("rule nan nan\n").ok());
  // Comments and blank lines are fine.
  EXPECT_TRUE(ParseMiningResult("# hi\n\n").ok());
}

}  // namespace
}  // namespace corrmine::io
