// Compares the level-wise miner against the random-walk alternative the
// paper sketches in Sections 2.1 and 6: walks have no per-level barrier and
// support non-downward-closed pruning (high-chi2 filtering), at the cost of
// probabilistic coverage.

#include <chrono>

#include "bench_metrics.h"
#include <iostream>
#include <string>

#include "common/logging.h"
#include "core/chi_squared_miner.h"
#include "core/random_walk_miner.h"
#include "datagen/quest_generator.h"
#include "io/table_printer.h"
#include "itemset/count_provider.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace
}  // namespace corrmine

int main() {
  using namespace corrmine;

  datagen::QuestOptions quest;
  quest.num_transactions = 20000;
  quest.num_items = 200;
  quest.avg_transaction_size = 12.0;
  quest.num_patterns = 40;
  auto db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(db.ok());
  BitmapCountProvider provider(*db);

  MinerOptions miner;
  miner.support.min_count = static_cast<uint64_t>(
      0.05 * static_cast<double>(db->num_baskets()));
  miner.support.cell_fraction = 0.25 + 1e-9;

  io::TablePrinter table({"strategy", "seconds", "minimal sets found"});

  size_t level_wise_found = 0;
  {
    auto start = std::chrono::steady_clock::now();
    auto result = MineCorrelations(provider, db->num_items(), miner);
    CORRMINE_CHECK(result.ok());
    level_wise_found = result->significant.size();
    table.AddRow({"level-wise (exact)",
                  io::FormatDouble(SecondsSince(start), 3),
                  std::to_string(level_wise_found)});
  }

  for (int walks : {100, 1000, 10000}) {
    RandomWalkOptions options;
    options.miner = miner;
    options.num_walks = walks;
    auto start = std::chrono::steady_clock::now();
    auto result =
        MineCorrelationsRandomWalk(provider, db->num_items(), options);
    CORRMINE_CHECK(result.ok());
    table.AddRow({"random walk x" + std::to_string(walks),
                  io::FormatDouble(SecondsSince(start), 3),
                  std::to_string(result->significant.size())});
  }

  // High-chi2 pruning — only expressible on the walk (not downward closed).
  {
    RandomWalkOptions options;
    options.miner = miner;
    options.num_walks = 10000;
    options.max_chi_squared = 500.0;
    auto start = std::chrono::steady_clock::now();
    auto result =
        MineCorrelationsRandomWalk(provider, db->num_items(), options);
    CORRMINE_CHECK(result.ok());
    table.AddRow({"random walk x10000, chi2<=500",
                  io::FormatDouble(SecondsSince(start), 3),
                  std::to_string(result->significant.size())});
  }

  std::cout << "== Random walk vs level-wise ==\n\n";
  table.Print(std::cout);
  std::cout << "\nwalks find subsets of the exact border ("
            << level_wise_found
            << " sets); coverage grows with the walk budget.\n";
  corrmine::bench::EmitMetricsLine("bench_random_walk");
  return 0;
}
