// Model-based randomized tests: drive library containers with random
// operation sequences and compare against trusted standard-library models,
// plus robustness checks feeding random bytes into the parsers.

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/chi_squared_miner.h"
#include "datagen/rng.h"
#include "hash/itemset_table.h"
#include "io/csv.h"
#include "io/result_io.h"
#include "io/transaction_io.h"
#include "itemset/itemset.h"
#include "test_util.h"

namespace corrmine {
namespace {

// --- Itemset vs std::set reference ---

class ItemsetModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ItemsetModel, OperationsMatchStdSet) {
  datagen::Rng rng(GetParam());
  Itemset subject;
  std::set<ItemId> model;
  for (int op = 0; op < 300; ++op) {
    ItemId item = static_cast<ItemId>(rng.NextBelow(20));
    switch (rng.NextBelow(3)) {
      case 0:
        subject = subject.WithItem(item);
        model.insert(item);
        break;
      case 1:
        subject = subject.WithoutItem(item);
        model.erase(item);
        break;
      case 2: {
        // Union with a small random set.
        std::vector<ItemId> extra;
        for (int i = 0; i < 3; ++i) {
          ItemId e = static_cast<ItemId>(rng.NextBelow(20));
          extra.push_back(e);
          model.insert(e);
        }
        subject = subject.Union(Itemset(extra));
        break;
      }
    }
    ASSERT_EQ(subject.size(), model.size()) << "op " << op;
    for (ItemId m : model) {
      ASSERT_TRUE(subject.Contains(m)) << "missing " << m << " at op " << op;
    }
    // Sortedness invariant.
    for (size_t i = 1; i < subject.size(); ++i) {
      ASSERT_LT(subject.item(i - 1), subject.item(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemsetModel,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- hash::ItemsetTable vs std::set<Itemset> ---

class ItemsetTableModel : public ::testing::TestWithParam<uint64_t> {};

/// `width` distinct items drawn below `universe`, as a sorted Itemset.
Itemset RandomItemset(datagen::Rng* rng, size_t width, ItemId universe) {
  std::set<ItemId> items;
  while (items.size() < width) {
    items.insert(static_cast<ItemId>(rng->NextBelow(universe)));
  }
  return Itemset(std::vector<ItemId>(items.begin(), items.end()));
}

/// Builds a table over `model` in lex order (the order a NOTSIG level is
/// committed in) and checks Find against it: every member at its build
/// index, and random probes of the table's width and of the next width,
/// present or absent.
void ExpectTableMatchesModel(const std::set<Itemset>& model, size_t width,
                             datagen::Rng* rng) {
  std::vector<ItemId> arena;
  for (const Itemset& s : model) arena.insert(arena.end(), s.begin(), s.end());
  auto table = hash::ItemsetTable::Build(width, arena);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->size(), model.size());
  size_t index = 0;
  for (const Itemset& s : model) {
    ASSERT_EQ(table->Find(s.items()), index) << s.ToString();
    ++index;
  }
  for (int probe = 0; probe < 500; ++probe) {
    const Itemset s = RandomItemset(rng, width, 16);
    const uint32_t found = table->Find(s.items());
    if (model.count(s) == 0) {
      ASSERT_EQ(found, hash::ItemsetTable::kAbsent) << s.ToString();
    } else {
      ASSERT_NE(found, hash::ItemsetTable::kAbsent) << s.ToString();
      ASSERT_TRUE(std::ranges::equal(table->member(found), s.items()));
    }
    ASSERT_EQ(table->Find(RandomItemset(rng, width + 1, 16).items()),
              hash::ItemsetTable::kAbsent);
  }
}

TEST_P(ItemsetTableModel, FindMatchesReference) {
  datagen::Rng rng(GetParam() * 31);
  for (size_t width = 2; width <= 5; ++width) {
    // About half of the C(16, width) possible itemsets, so probes hit and
    // miss alike.
    std::set<Itemset> model;
    while (model.size() < BinomialCount(16, width) / 2) {
      model.insert(RandomItemset(&rng, width, 16));
    }
    ExpectTableMatchesModel(model, width, &rng);
    ExpectTableMatchesModel({}, width, &rng);
    ExpectTableMatchesModel({*model.begin()}, width, &rng);
  }
  EXPECT_EQ(hash::ItemsetTable().Find(Itemset{1, 2}.items()),
            hash::ItemsetTable::kAbsent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemsetTableModel,
                         ::testing::Values(10, 20, 30, 40));

// --- Parser robustness: random bytes must never crash, only error ---

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

std::string RandomBytes(datagen::Rng* rng, size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    // Bias toward printable + structural characters to reach deeper code.
    uint64_t pick = rng->NextBelow(100);
    if (pick < 60) {
      out += static_cast<char>('0' + rng->NextBelow(10));
    } else if (pick < 75) {
      out += ' ';
    } else if (pick < 85) {
      out += '\n';
    } else if (pick < 90) {
      out += ',';
    } else {
      out += static_cast<char>(rng->NextBelow(256));
    }
  }
  return out;
}

TEST_P(ParserFuzz, TransactionParserNeverCrashes) {
  datagen::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = RandomBytes(&rng, 1 + rng.NextBelow(400));
    auto db = io::ParseTransactions(input);
    if (db.ok()) {
      // Whatever parsed must be internally consistent.
      uint64_t total = 0;
      for (size_t row = 0; row < db->num_baskets(); ++row) {
        total += db->basket(row).size();
      }
      EXPECT_EQ(total, db->TotalItemOccurrences());
    }
  }
}

TEST_P(ParserFuzz, CsvParserNeverCrashes) {
  datagen::Rng rng(GetParam() + 99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = RandomBytes(&rng, 1 + rng.NextBelow(400));
    auto db = io::ParseCategoricalCsv(input);
    if (db.ok()) {
      EXPECT_GT(db->num_rows(), 0u);
      EXPECT_GE(db->num_attributes(), 1);
    }
  }
}

TEST_P(ParserFuzz, ResultParserNeverCrashes) {
  datagen::Rng rng(GetParam() + 777);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = "level " + RandomBytes(&rng, rng.NextBelow(100));
    auto result = io::ParseMiningResult(input);
    (void)result;  // OK or error — just must not crash.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(5, 15, 25));

}  // namespace
}  // namespace corrmine
