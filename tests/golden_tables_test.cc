// Golden-file regression tests for the paper-table workloads. Each test
// re-runs the deterministic core of a bench/table*_*.cc binary (fixed
// generator seeds, fixed miner options) and renders a timing-free text
// snapshot, compared byte-for-byte against tests/golden/<name>.txt.
//
// When an intentional change shifts the output, regenerate with:
//   ./golden_tables_test --update-golden
// and review the golden diff like any other code change. GOLDEN_DIR is
// injected by CMake and points into the source tree, so --update-golden
// rewrites the checked-in files in place.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/chi_squared_miner.h"
#include "datagen/census_generator.h"
#include "datagen/quest_generator.h"
#include "datagen/text_generator.h"
#include "io/stats_json.h"
#include "io/table_printer.h"
#include "itemset/count_provider.h"

#ifndef GOLDEN_DIR
#error "GOLDEN_DIR must be defined by the build"
#endif

namespace corrmine {

// Set from main before gtest runs; outside the anonymous namespace so the
// flag-peeling main below can reach it.
bool g_update_golden = false;

namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name + ".txt";
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.flush();
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    std::cout << "updated " << path << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run ./golden_tables_test --update-golden to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "snapshot for " << name << " diverged from " << path
      << "; if intentional, regenerate with --update-golden";
}

// --- table1_census: dictionary, first baskets, marginals ----------------

TEST(GoldenTablesTest, Table1Census) {
  using datagen::CensusItems;
  using datagen::kCensusNumItems;
  std::ostringstream out;

  io::TablePrinter items({"item", "attribute", "possible non-attribute "
                                               "values"});
  for (int i = 0; i < kCensusNumItems; ++i) {
    items.AddRow({"i" + std::to_string(i), CensusItems()[i].attribute,
                  CensusItems()[i].non_attribute});
  }
  items.Print(out);

  datagen::CensusOptions options;
  auto db = datagen::GenerateCensusData(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  out << "\nfirst 9 of " << db->num_baskets() << " baskets:\n";
  io::TablePrinter baskets({"basket", "items"});
  for (size_t row = 0; row < 9 && row < db->num_baskets(); ++row) {
    std::string contents;
    for (ItemId item : db->basket(row)) {
      if (!contents.empty()) contents += ", ";
      contents += "i" + std::to_string(item);
    }
    baskets.AddRow({std::to_string(row + 1), contents});
  }
  baskets.Print(out);

  out << "\nmarginals:\n";
  const auto& model = datagen::CensusModel::Paper();
  io::TablePrinter marginals({"item", "paper %", "generated %"});
  for (int i = 0; i < kCensusNumItems; ++i) {
    auto p = db->ItemProbability(static_cast<ItemId>(i));
    ASSERT_TRUE(p.ok());
    marginals.AddRow({"i" + std::to_string(i),
                      io::FormatPercent(model.Marginal(i), 1),
                      io::FormatPercent(*p, 1)});
  }
  marginals.Print(out);

  CompareOrUpdate("table1_census", out.str());
}

// --- table4_text: word correlations up to triples -----------------------

TEST(GoldenTablesTest, Table4Text) {
  auto corpus = datagen::GenerateTextCorpus();
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const TransactionDatabase& db = corpus->database;
  std::ostringstream out;
  out << "documents: " << db.num_baskets()
      << ", vocabulary: " << db.num_items() << "\n\n";

  BitmapCountProvider provider(db);
  MinerOptions options;
  options.support.min_count = 5;
  options.support.cell_fraction = 0.25 + 1e-9;
  options.max_level = 3;
  options.chi2.min_expected_cell = 1.0;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<const CorrelationRule*> pairs;
  std::vector<const CorrelationRule*> triples;
  for (const CorrelationRule& rule : result->significant) {
    (rule.itemset.size() == 2 ? pairs : triples).push_back(&rule);
  }
  auto by_chi2 = [](const CorrelationRule* a, const CorrelationRule* b) {
    if (a->chi2.statistic != b->chi2.statistic) {
      return a->chi2.statistic > b->chi2.statistic;
    }
    return a->itemset < b->itemset;  // Total order keeps the top-k stable.
  };
  std::sort(pairs.begin(), pairs.end(), by_chi2);
  std::sort(triples.begin(), triples.end(), by_chi2);

  io::TablePrinter table({"correlated words", "chi2"});
  auto add_rules = [&](const std::vector<const CorrelationRule*>& rules,
                       size_t limit) {
    for (size_t i = 0; i < rules.size() && i < limit; ++i) {
      std::string words;
      for (ItemId item : rules[i]->itemset) {
        if (!words.empty()) words += " ";
        auto name = db.dictionary().Name(item);
        words += name.ok() ? *name : ("w" + std::to_string(item));
      }
      table.AddRow({words, io::FormatDouble(rules[i]->chi2.statistic, 3)});
    }
  };
  add_rules(pairs, 8);
  add_rules(triples, 6);
  table.Print(out);

  out << "\nminimal correlated pairs: " << pairs.size()
      << "\nminimal correlated triples: " << triples.size() << "\n";
  out << "stats: " << RenderDeterministicStats(*result) << "\n";

  CompareOrUpdate("table4_text", out.str());
}

// --- table5_quest: pruning effectiveness per level ----------------------

TEST(GoldenTablesTest, Table5Quest) {
  datagen::QuestOptions quest;
  quest.num_patterns = 140;
  auto db = datagen::GenerateQuestData(quest);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  BitmapCountProvider provider(*db);
  MinerOptions options;
  options.support.min_count = static_cast<uint64_t>(
      0.05 * static_cast<double>(db->num_baskets()));
  options.support.cell_fraction = 0.25 + 1e-9;
  options.level_one = LevelOnePruning::kFigure1Strict;
  auto result = MineCorrelations(provider, db->num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::ostringstream out;
  out << "n = " << db->num_baskets() << ", items = " << db->num_items()
      << "\n\n";
  io::TablePrinter table({"level", "itemsets", "|CAND|", "CAND discards",
                          "chi2 tests", "masked cells", "|SIG|",
                          "|NOTSIG|"});
  for (const LevelStats& level : result->levels) {
    table.AddRow({std::to_string(level.level),
                  std::to_string(level.possible_itemsets),
                  std::to_string(level.candidates),
                  std::to_string(level.discards),
                  std::to_string(level.chi2_tests),
                  std::to_string(level.masked_cells),
                  std::to_string(level.significant),
                  std::to_string(level.not_significant)});
  }
  table.Print(out);
  out << "\nstats: " << RenderDeterministicStats(*result) << "\n";

  CompareOrUpdate("table5_quest", out.str());
}

}  // namespace
}  // namespace corrmine

// Own main so --update-golden can be peeled off before gtest parses flags.
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      corrmine::g_update_golden = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  ::testing::InitGoogleTest(&filtered_argc, args.data());
  return RUN_ALL_TESTS();
}
