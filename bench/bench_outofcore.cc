// Out-of-core mining under a hard memory budget (DESIGN.md §12). The
// workload is the acceptance scenario for the spill-and-sweep miner: a
// quest dataset whose in-memory mining footprint (uncompressed bitmap
// index + row store) is >= 10x the --memory-budget, mined end to end with
// MineCorrelationsOutOfCore while the process peak RSS is tracked. The
// budget contract is about the data: the spill's partition buffer and
// the partitions a sweep maps at once are the only data-sized
// allocations, so peak RSS must stay within 1.1x of the budget no matter
// how far the dataset outgrows it.
//
// getrusage peak RSS is process-monotone, so ordering is load-bearing:
// the dataset is generated and written in small chunks (never holding the
// whole database), the budgeted PARALLEL out-of-core mine (threads=0,
// sweeps up to `admitted` partitions wide — the configuration the RSS
// gate judges) runs FIRST and its peak is read immediately after; only
// then do the serial baseline (for the outofcore_scaling gate), the
// parallel reruns and the (small, in-memory) differential check run.
// Every timing is the median of five runs per side, alternating serial
// and parallel.
//
// Emits one "BENCH_JSON" line (the BENCH_outofcore.json seed) consumed by
// tools/benchgate, which enforces the RSS ceiling, the >= 10x
// dataset-over-budget floor, the v2 spill-compression ratio and — on
// machines with enough cores — the sweep speedup: wall seconds inside
// the parallel runs' sweeps against the serial runs'. The spill's seconds
// and the whole mine's seconds on both sides are reported too (benchgate
// prints them, report-only): the parallel spill closes its partitions on
// the pool behind one reader, so the reader bounds it. The harness
// CHECK-fails if the out-of-core result ever differs from the in-memory
// bytes, or if any parallel or forced-serial run diverges — exactness is
// part of the bench, not just the test suite.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "mining/partition.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Fingerprint(const MiningResult& result) {
  std::string out;
  for (const CorrelationRule& rule : result.significant) {
    out += rule.itemset.ToString() + ':' +
           std::to_string(Bits(rule.chi2.statistic)) + ':' +
           std::to_string(Bits(rule.chi2.p_value)) + ';';
  }
  for (const LevelStats& level : result.levels) {
    out += std::to_string(level.candidates) + '/' +
           std::to_string(level.significant) + '/' +
           std::to_string(level.not_significant) + ';';
  }
  return out;
}

/// Streams a quest dataset to `path` in small multi-segment CMB1 chunks —
/// the whole database never exists in memory, so generation cannot set a
/// peak RSS the mining gate would then be judged against. Returns the
/// total item-occurrence count (the row-store term of dataset_bytes).
uint64_t WriteChunkedQuest(const std::string& path, uint64_t total_rows,
                           uint32_t num_items, uint64_t seed) {
  constexpr uint64_t kChunkRows = 50000;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CORRMINE_CHECK(out.good()) << "cannot write " << path;
  uint64_t occurrences = 0;
  for (uint64_t start = 0; start < total_rows; start += kChunkRows) {
    datagen::QuestOptions quest;
    quest.num_transactions = std::min(kChunkRows, total_rows - start);
    quest.num_items = num_items;
    // Same seed for every chunk: the quest pattern universe is seed-drawn,
    // so a constant seed keeps the planted correlations at full strength
    // across the whole file (distinct seeds would dilute them ~1/chunks
    // and the budgeted mine would find nothing). The spill and counting
    // paths are row-oblivious — repeated segments exercise them fully.
    quest.seed = seed;
    auto chunk = datagen::GenerateQuestData(quest);
    CORRMINE_CHECK(chunk.ok()) << chunk.status().ToString();
    for (size_t row = 0; row < chunk->num_baskets(); ++row) {
      occurrences += chunk->basket(row).size();
    }
    const std::string encoded = io::EncodeBinaryTransactions(*chunk);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    CORRMINE_CHECK(out.good()) << "short write to " << path;
  }
  return occurrences;
}

struct Run {
  uint64_t budget_bytes = 0;
  uint64_t dataset_bytes = 0;
  uint64_t num_baskets = 0;
  uint64_t peak_rss_bytes = 0;
  uint64_t partitions = 0;
  uint64_t spilled_payload_bytes = 0;
  uint64_t spilled_encoded_bytes = 0;
  uint64_t candidate_queries = 0;
  uint64_t memo_misses = 0;
  uint64_t significant = 0;
  int admitted = 1;
  int threads = 1;
  int usable_cores = 1;
  double seconds = 0.0;
  double serial_seconds = 0.0;
  double sweep_parallel_seconds = 0.0;
  double sweep_serial_seconds = 0.0;
  double sweep_speedup = 0.0;
  double spill_seconds = 0.0;
  double spill_serial_seconds = 0.0;
  double spill_ratio = 1.0;
};

/// Runs of each side the timings are medians of.
constexpr int kTimedRuns = 5;

/// One out-of-core mine's wall, spill and sweep seconds.
struct Timing {
  double seconds = 0.0;
  double spill_seconds = 0.0;
  double sweep_seconds = 0.0;

  Timing(double wall, const OutOfCoreStats& stats)
      : seconds(wall),
        spill_seconds(stats.spill_pass1_seconds),
        sweep_seconds(stats.pass2_seconds) {}
};

/// Mines `path` once more and checks it answers exactly `expected`.
Timing TimedMine(const std::string& path, const OutOfCoreMinerOptions& options,
                 const MiningResult& expected) {
  OutOfCoreStats stats;
  const auto start = std::chrono::steady_clock::now();
  auto mined = MineCorrelationsOutOfCore(path, options, &stats);
  const double seconds = SecondsSince(start);
  CORRMINE_CHECK(mined.ok()) << mined.status().ToString();
  CORRMINE_CHECK(Fingerprint(*mined) == Fingerprint(expected))
      << "out-of-core mine at " << options.miner.num_threads
      << " threads diverged from the first parallel run";
  return Timing(seconds, stats);
}

/// Each field's median over `runs` (an odd count).
Timing Median(std::vector<Timing> runs) {
  const auto field = [&runs](double Timing::*member) {
    std::vector<double> values;
    for (const Timing& t : runs) values.push_back(t.*member);
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
  };
  Timing median = runs.front();
  median.seconds = field(&Timing::seconds);
  median.spill_seconds = field(&Timing::spill_seconds);
  median.sweep_seconds = field(&Timing::sweep_seconds);
  return median;
}

int Main() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "corrmine_bench_outofcore";
  std::filesystem::create_directories(dir);

  // The budgeted run: ~1.9M baskets over the paper's 870-item space. The
  // in-memory footprint this run avoids is the uncompressed per-item
  // bitmap index (870 x ceil(rows/64) x 8 bytes) plus the uint32 row
  // store — ~360 MB against a 32 MiB budget, an 11x overhang.
  constexpr uint64_t kBudget = uint64_t{32} << 20;
  constexpr uint64_t kRows = 1900000;
  constexpr uint32_t kItems = 870;
  const std::string big = (dir / "big.cmb").string();
  const uint64_t occurrences = WriteChunkedQuest(big, kRows, kItems, 1997);
  const uint64_t dataset_bytes =
      uint64_t{kItems} * ((kRows + 63) / 64) * 8 + occurrences * 4;

  OutOfCoreMinerOptions options;
  options.miner.support.min_count = kRows / 20;  // 5% support
  options.miner.support.cell_fraction = 0.26;
  options.miner.max_level = 3;
  // The RSS-gated configuration is the parallel one: threads=0 resolves
  // to the usable core count and the admission controller decides how
  // many partitions overlap. This run MUST be first — getrusage peak is
  // monotone, so any later run inherits (and could mask) its ceiling.
  options.miner.num_threads = 0;
  options.memory_budget_bytes = kBudget;
  options.spill_dir = (dir / "spill").string();

  OutOfCoreStats stats;
  auto start = std::chrono::steady_clock::now();
  auto mined = MineCorrelationsOutOfCore(big, options, &stats);
  std::vector<Timing> parallel = {{SecondsSince(start), stats}};
  // Read the monotone peak immediately: everything after this line may
  // allocate without polluting the budgeted measurement.
  const uint64_t peak_rss = PeakRssBytes();
  CORRMINE_CHECK(mined.ok()) << mined.status().ToString();

  // Serial baseline for the outofcore_scaling gate: one thread, no pool,
  // admitted = 1, so every sweep counts one partition at a time. Also the
  // strongest determinism evidence the bench can give — the parallel and
  // serial runs must produce identical result bytes. The sweeps take tens
  // of milliseconds and a single run's swing by up to 2x, so each side is
  // timed kTimedRuns times, alternating, and the gate reads the medians.
  OutOfCoreMinerOptions serial_options = options;
  serial_options.miner.num_threads = 1;
  serial_options.spill_dir = (dir / "spill_serial").string();
  std::vector<Timing> serial;
  for (int i = 0; i < kTimedRuns; ++i) {
    if (i > 0) parallel.push_back(TimedMine(big, options, *mined));
    serial.push_back(TimedMine(big, serial_options, *mined));
  }
  const Timing median = Median(parallel);
  const Timing serial_median = Median(serial);

  Run run;
  run.budget_bytes = kBudget;
  run.dataset_bytes = dataset_bytes;
  run.num_baskets = stats.num_baskets;
  run.peak_rss_bytes = peak_rss;
  run.partitions = stats.partitions;
  run.spilled_payload_bytes = stats.spilled_payload_bytes;
  run.spilled_encoded_bytes = stats.spilled_encoded_bytes;
  run.candidate_queries = stats.candidate_queries;
  run.memo_misses = stats.memo_misses;
  run.significant = mined->significant.size();
  run.admitted = stats.admitted;
  run.threads = ThreadPool::ResolveThreadCount(0);
  run.usable_cores = ThreadPool::UsableHardwareConcurrency();
  run.seconds = median.seconds;
  run.serial_seconds = serial_median.seconds;
  run.sweep_parallel_seconds = median.sweep_seconds;
  run.sweep_serial_seconds = serial_median.sweep_seconds;
  run.sweep_speedup = median.sweep_seconds > 0.0
                          ? serial_median.sweep_seconds / median.sweep_seconds
                          : 0.0;
  run.spill_seconds = median.spill_seconds;
  run.spill_serial_seconds = serial_median.spill_seconds;
  run.spill_ratio =
      run.spilled_payload_bytes > 0
          ? static_cast<double>(run.spilled_encoded_bytes) /
                static_cast<double>(run.spilled_payload_bytes)
          : 1.0;

  // Differential check on a dataset small enough to also mine in memory
  // (still multi-partition under its budget). Peak RSS was already
  // recorded, so the in-memory side cannot contaminate the gate.
  // 870 items keeps the mean item frequency (~2.3%) well under the 5%
  // support floor — strong pruning, so miner state stays small and the
  // budget contract is about the data, not the lattice.
  const std::string small = (dir / "small.cmb").string();
  WriteChunkedQuest(small, 60000, 870, 42);
  OutOfCoreMinerOptions small_options;
  small_options.miner.support.min_count = 3000;
  small_options.miner.support.cell_fraction = 0.26;
  small_options.miner.max_level = 3;
  small_options.memory_budget_bytes = uint64_t{6} << 20;
  small_options.spill_dir = (dir / "spill_small").string();
  OutOfCoreStats small_stats;
  auto ooc = MineCorrelationsOutOfCore(small, small_options, &small_stats);
  CORRMINE_CHECK(ooc.ok()) << ooc.status().ToString();
  auto session = MiningSession::Open(small, {});
  CORRMINE_CHECK(session.ok()) << session.status().ToString();
  auto in_memory = session->Mine(small_options.miner);
  CORRMINE_CHECK(in_memory.ok()) << in_memory.status().ToString();
  CORRMINE_CHECK(Fingerprint(*ooc) == Fingerprint(*in_memory))
      << "out-of-core mine diverged from the in-memory miner";
  CORRMINE_CHECK(small_stats.partitions >= 2)
      << "differential check did not exercise multi-partition spill";

  // Every number routes through FormatJsonNumber: byte counts and row
  // counts must seed BENCH_outofcore.json as exact integers, never
  // scientific notation (a "3.35544e+07" budget is not 33554432 bytes).
  const auto num = [](double v) { return bench::FormatJsonNumber(v); };
  std::ostringstream fields;
  fields << "\"runs\":[{\"budget_bytes\":" << num(run.budget_bytes)
         << ",\"dataset_bytes\":" << num(run.dataset_bytes)
         << ",\"num_baskets\":" << num(run.num_baskets)
         << ",\"peak_rss_bytes\":" << num(run.peak_rss_bytes)
         << ",\"partitions\":" << num(run.partitions)
         << ",\"spilled_payload_bytes\":" << num(run.spilled_payload_bytes)
         << ",\"spilled_encoded_bytes\":" << num(run.spilled_encoded_bytes)
         << ",\"spill_ratio\":" << num(run.spill_ratio)
         << ",\"candidate_queries\":" << num(run.candidate_queries)
         << ",\"memo_misses\":" << num(run.memo_misses)
         << ",\"significant\":" << num(run.significant)
         << ",\"admitted\":" << num(run.admitted)
         << ",\"threads\":" << num(run.threads)
         << ",\"usable_cores\":" << num(run.usable_cores)
         << ",\"seconds\":" << num(run.seconds)
         << ",\"serial_seconds\":" << num(run.serial_seconds)
         << ",\"sweep_parallel_seconds\":" << num(run.sweep_parallel_seconds)
         << ",\"sweep_serial_seconds\":" << num(run.sweep_serial_seconds)
         << ",\"sweep_speedup\":" << num(run.sweep_speedup)
         << ",\"spill_seconds\":" << num(run.spill_seconds)
         << ",\"spill_serial_seconds\":" << num(run.spill_serial_seconds)
         << "}]";
  bench::EmitBenchJsonLine("bench_outofcore", fields.str());

  std::cout << "out-of-core: " << run.num_baskets << " baskets, "
            << run.dataset_bytes / (1 << 20) << " MiB dataset vs "
            << run.budget_bytes / (1 << 20) << " MiB budget ("
            << static_cast<double>(run.dataset_bytes) / run.budget_bytes
            << "x), peak RSS " << run.peak_rss_bytes / (1 << 20)
            << " MiB, " << run.partitions << " partitions (admitted "
            << run.admitted << ", " << run.threads << " threads), spill "
            << run.spilled_encoded_bytes / (1 << 20) << "/"
            << run.spilled_payload_bytes / (1 << 20) << " MiB ("
            << run.spill_ratio << "x), sweeps "
            << run.sweep_parallel_seconds << " s vs serial "
            << run.sweep_serial_seconds << " s ("
            << run.sweep_speedup << "x), spill " << run.spill_seconds
            << " s vs serial " << run.spill_serial_seconds << " s, "
            << run.significant << " rules in " << run.seconds
            << " s vs serial " << run.serial_seconds << " s (medians of "
            << kTimedRuns << " runs)\n";

  bench::EmitMetricsLine("bench_outofcore");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}

}  // namespace
}  // namespace corrmine

int main() { return corrmine::Main(); }
