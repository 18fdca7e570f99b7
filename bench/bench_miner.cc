// End-to-end miner timings and ablations (plain harness, not
// google-benchmark: each configuration is one full mining run).
//
//  - census/quest end-to-end wall clock (the paper quotes 3.6 s and 2349 s
//    on 1996 hardware for these; we report ours for the record);
//  - support pruning on/off, p-level sweep, alpha sweep;
//  - level-1 pruning mode ablation (Figure 1 strict vs feasibility bound);
//  - Apriori baseline cost on the same data;
//  - B1, the ROADMAP's mid-size mine, at 1 and 4 threads: miner.mine and
//    its count/evaluate/generate split, and peak RSS. It runs first, so the
//    RSS it prints is its own. A 1-thread B1 mine takes seconds to tens of
//    seconds, which keeps this harness out of scripts/verify.sh.

#include "common/logging.h"

#include "bench_metrics.h"
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/chi_squared_miner.h"
#include "core/session.h"
#include "datagen/census_generator.h"
#include "datagen/quest_generator.h"
#include "io/table_printer.h"
#include "mining/apriori.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RunResult {
  double seconds = 0.0;
  uint64_t candidates = 0;
  uint64_t significant = 0;
  int levels = 0;
};

RunResult RunMiner(const CountProvider& provider, ItemId num_items,
                   const MinerOptions& options) {
  auto start = std::chrono::steady_clock::now();
  auto result = MineCorrelations(provider, num_items, options);
  CORRMINE_CHECK(result.ok()) << result.status().ToString();
  RunResult out;
  out.seconds = SecondsSince(start);
  for (const LevelStats& level : result->levels) {
    out.candidates += level.candidates;
    out.significant += level.significant;
  }
  out.levels = static_cast<int>(result->levels.size());
  return out;
}

void Report(io::TablePrinter* table, const std::string& name,
            const RunResult& run) {
  table->AddRow({name, io::FormatDouble(run.seconds, 3),
                 std::to_string(run.candidates),
                 std::to_string(run.significant),
                 std::to_string(run.levels)});
}

/// B1: `generate quest --baskets 20000`, then `mine --support-count 600
/// --cell-fraction 0.26`, mined through a MiningSession as the CLI does;
/// the global registry is reset before each run for the phase split.
void RunB1() {
  datagen::QuestOptions quest;
  quest.num_transactions = 20000;
  auto db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(db.ok()) << db.status().ToString();
  std::printf("== B1: Quest n=20000, support count 600, p=0.26 ==\n");
  io::TablePrinter table({"threads", "miner.mine s", "count_batch s",
                          "evaluate s", "generate s", "candidates", "sig",
                          "peak RSS MiB"});
  for (int threads : {1, 4}) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.Reset();
    SessionOptions session_options;
    session_options.num_threads = threads;
    auto session = MiningSession::FromDatabase(*db, session_options);
    CORRMINE_CHECK(session.ok()) << session.status().ToString();
    MinerOptions options;
    options.support.min_count = 600;
    options.support.cell_fraction = 0.26;
    auto result = session->Mine(options);
    CORRMINE_CHECK(result.ok()) << result.status().ToString();
    auto seconds = [&](const char* phase) {
      const double ns = static_cast<double>(
          registry.GetHistogram(std::string(phase) + ".ns")->Value().sum);
      return io::FormatDouble(ns / 1e9, 3);
    };
    uint64_t candidates = 0;
    for (const LevelStats& level : result->levels) {
      candidates += level.candidates;
    }
    table.AddRow({std::to_string(threads), seconds("miner.mine"),
                  seconds("miner.count_batch"), seconds("miner.evaluate"),
                  seconds("miner.generate"), std::to_string(candidates),
                  std::to_string(result->significant.size()),
                  std::to_string(PeakRssBytes() >> 20)});
  }
  table.Print(std::cout);
  std::printf("\n");
}

}  // namespace
}  // namespace corrmine

int main() {
  using namespace corrmine;
  RunB1();

  std::printf("== End-to-end mining timings ==\n");
  std::printf(
      "(paper, 1996 hardware: census 3.6 s on a 90 MHz Pentium; Quest\n"
      " synthetic 2349 s on a 166 MHz Pentium Pro)\n\n");

  io::TablePrinter table(
      {"configuration", "seconds", "cand_total", "sig_total", "levels"});

  // --- Census, paper settings (s = 1%, p just over 25%, 95%). ---
  {
    auto db = datagen::GenerateCensusData();
    CORRMINE_CHECK(db.ok());
    BitmapCountProvider provider(*db);
    MinerOptions options;
    options.support.min_count = static_cast<uint64_t>(
        0.01 * static_cast<double>(db->num_baskets()));
    options.support.cell_fraction = 0.25 + 1e-9;
    Report(&table, "census n=30370 k=10",
           RunMiner(provider, db->num_items(), options));
  }

  // --- Quest, Table 5 calibration; then ablations on the same data. ---
  datagen::QuestOptions quest;
  quest.num_patterns = 140;
  auto quest_db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(quest_db.ok());
  BitmapCountProvider provider(*quest_db);
  const uint64_t s5 = static_cast<uint64_t>(
      0.05 * static_cast<double>(quest_db->num_baskets()));

  MinerOptions base;
  base.support.min_count = s5;
  base.support.cell_fraction = 0.25 + 1e-9;
  Report(&table, "quest n=99997 k=870 (table5 cfg)",
         RunMiner(provider, quest_db->num_items(), base));

  {
    MinerOptions options = base;
    options.level_one = LevelOnePruning::kFeasibilityBound;
    Report(&table, "quest level1=feasibility",
           RunMiner(provider, quest_db->num_items(), options));
  }
  {
    MinerOptions options = base;
    options.support.min_count = 1;  // Support pruning effectively off.
    options.max_level = 3;          // Keep the blow-up bounded.
    Report(&table, "quest support off (max level 3)",
           RunMiner(provider, quest_db->num_items(), options));
  }
  for (double fraction : {0.26, 0.51, 0.76}) {
    MinerOptions options = base;
    options.support.cell_fraction = fraction;
    Report(&table,
           "quest p=" + io::FormatDouble(fraction, 2),
           RunMiner(provider, quest_db->num_items(), options));
  }
  for (double alpha : {0.95, 0.99, 0.999}) {
    MinerOptions options = base;
    options.confidence_level = alpha;
    Report(&table,
           "quest alpha=" + io::FormatDouble(alpha, 3),
           RunMiner(provider, quest_db->num_items(), options));
  }

  // --- Apriori baseline on the same Quest data. ---
  {
    auto start = std::chrono::steady_clock::now();
    AprioriOptions options;
    options.min_support_fraction = 0.05;
    auto frequent =
        MineFrequentItemsets(provider, quest_db->num_items(), options);
    CORRMINE_CHECK(frequent.ok());
    table.AddRow({"quest apriori s=5% (baseline)",
                  io::FormatDouble(SecondsSince(start), 3), "-",
                  std::to_string(frequent->size()), "-"});
  }

  table.Print(std::cout);
  corrmine::bench::EmitMetricsLine("bench_miner");
  return 0;
}
