// Head-to-head of the frequent-itemset miners behind `rules` — Apriori and
// Eclat — on the same Quest data, verifying identical outputs while timing
// each.

#include <chrono>

#include "bench_metrics.h"
#include <iostream>
#include <map>
#include <string>

#include "common/logging.h"
#include "datagen/quest_generator.h"
#include "io/table_printer.h"
#include "itemset/count_provider.h"
#include "mining/apriori.h"
#include "mining/eclat.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::map<Itemset, uint64_t> ToMap(const std::vector<FrequentItemset>& sets) {
  std::map<Itemset, uint64_t> m;
  for (const FrequentItemset& f : sets) m.emplace(f.itemset, f.count);
  return m;
}

}  // namespace
}  // namespace corrmine

int main() {
  using namespace corrmine;

  datagen::QuestOptions quest;
  quest.num_transactions = 50000;
  quest.num_items = 500;
  quest.avg_transaction_size = 12.0;
  quest.num_patterns = 120;
  auto db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(db.ok());
  const double kSupport = 0.02;
  std::cout << "== Frequent-itemset baselines on quest data ==\n"
            << "n = " << db->num_baskets() << ", items = " << db->num_items()
            << ", min support " << kSupport * 100 << "%\n\n";

  io::TablePrinter table({"algorithm", "seconds", "frequent sets",
                          "matches apriori"});
  std::map<Itemset, uint64_t> reference;

  BitmapCountProvider provider(*db);
  {
    auto start = std::chrono::steady_clock::now();
    AprioriOptions options;
    options.min_support_fraction = kSupport;
    auto result = MineFrequentItemsets(provider, db->num_items(), options);
    CORRMINE_CHECK(result.ok());
    reference = ToMap(*result);
    table.AddRow({"apriori (bitmap counts)",
                  io::FormatDouble(SecondsSince(start), 3),
                  std::to_string(result->size()), "-"});
  }
  {
    auto start = std::chrono::steady_clock::now();
    EclatOptions options;
    options.min_support_fraction = kSupport;
    auto result = MineFrequentItemsetsEclat(*db, options);
    CORRMINE_CHECK(result.ok());
    table.AddRow({"eclat", io::FormatDouble(SecondsSince(start), 3),
                  std::to_string(result->size()),
                  ToMap(*result) == reference ? "yes" : "NO"});
  }
  table.Print(std::cout);
  corrmine::bench::EmitMetricsLine("bench_baselines");
  return 0;
}
