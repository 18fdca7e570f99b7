// Out-of-core mining acceptance: the spill-and-sweep miner must produce
// byte-identical results to the in-memory miner on every dataset where both
// run, across thread counts and partition-forcing memory budgets, and must
// ask exactly the in-memory walk's count questions.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/transaction_io.h"
#include "mining/partition.h"
#include "test_util.h"

namespace corrmine {
namespace {

/// Stable fingerprint of everything a mining run answers: rules with their
/// statistics, the per-level table, and the frontier.
std::string Fingerprint(const MiningResult& result) {
  std::ostringstream out;
  out.precision(17);
  for (const CorrelationRule& rule : result.significant) {
    out << rule.itemset.ToString() << '|' << rule.chi2.statistic << '|'
        << rule.chi2.p_value << '|' << rule.major_dependence.mask << '|'
        << rule.major_dependence.interest << '\n';
  }
  for (const LevelStats& level : result.levels) {
    out << 'L' << level.level << ':' << level.possible_itemsets << ','
        << level.candidates << ',' << level.discards << ','
        << level.significant << ',' << level.not_significant << ','
        << level.chi2_tests << ',' << level.masked_cells << '\n';
  }
  for (const Itemset& f : result.frontier) out << 'F' << f.ToString() << '\n';
  return out.str();
}

class OutOfCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("corrmine_ooc_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(OutOfCoreTest, MatchesInMemoryAcrossThreadsAndBudgets) {
  auto db_or = datagen::GenerateQuestData({.num_transactions = 6000,
                                           .num_items = 300,
                                           .avg_transaction_size = 12.0,
                                           .seed = 2024});
  ASSERT_TRUE(db_or.ok());
  const std::string input = (dir_ / "quest.bin").string();
  ASSERT_TRUE(io::WriteBinaryTransactionFile(*db_or, input).ok());

  MinerOptions miner;
  // 5% support over the ~4% mean item frequency: pattern items (which run
  // hotter than the mean) survive, the independent tail is pruned, and
  // the 4-config sweep below stays fast.
  miner.support.min_count = 300;
  miner.support.cell_fraction = 0.26;
  miner.max_level = 3;
  miner.keep_frontier = true;

  SessionOptions session_options;
  auto session_or = MiningSession::Open(input, session_options);
  ASSERT_TRUE(session_or.ok());
  auto expected_or = session_or->Mine(miner);
  ASSERT_TRUE(expected_or.ok());
  const std::string expected = Fingerprint(*expected_or);
  ASSERT_FALSE(expected_or->significant.empty());
  // The walk reaches level 3, so every configuration below runs two sweeps.
  uint64_t expected_candidates = 0;
  for (const LevelStats& level : expected_or->levels) {
    expected_candidates += level.candidates;
  }
  ASSERT_EQ(expected_or->levels.size(), 2u);

  // Both budgets leave this dataset in one partition (the 1 MiB partition
  // floor swallows it); MultiplePartitionsStayExact and PartitionBudgetKnob
  // force several. Deterministic stats (partition count, swept queries)
  // must be a function of the budget alone — identical at any thread
  // count.
  for (const uint64_t budget : {uint64_t{8} << 20, uint64_t{512} << 20}) {
    OutOfCoreStats baseline;
    bool have_baseline = false;
    for (const int threads : {1, 2, 8}) {
      OutOfCoreMinerOptions options;
      options.miner = miner;
      options.miner.num_threads = threads;
      options.memory_budget_bytes = budget;
      options.spill_dir = (dir_ / "spill").string();
      OutOfCoreStats stats;
      auto result_or = MineCorrelationsOutOfCore(input, options, &stats);
      ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
      EXPECT_EQ(Fingerprint(*result_or), expected)
          << "threads " << threads << ", budget " << budget;
      EXPECT_EQ(stats.num_baskets, 6000u);
      EXPECT_GE(stats.partitions, 1u);
      EXPECT_GE(stats.admitted, 1);
      // One count per question the in-memory walk asks: single items come
      // from the spill's item counts, every candidate from one sweep.
      EXPECT_EQ(stats.candidate_queries, expected_candidates)
          << "threads " << threads << ", budget " << budget;
      EXPECT_EQ(stats.memo_misses, expected_candidates);
      EXPECT_EQ(stats.memo_hits, session_or->num_items());
      if (!have_baseline) {
        baseline = stats;
        have_baseline = true;
      } else {
        EXPECT_EQ(stats.partitions, baseline.partitions)
            << "threads " << threads << ", budget " << budget;
        EXPECT_EQ(stats.candidate_queries, baseline.candidate_queries)
            << "threads " << threads << ", budget " << budget;
        EXPECT_EQ(stats.memo_misses, baseline.memo_misses)
            << "threads " << threads << ", budget " << budget;
      }
      // Spill files are cleaned up unless keep_spill is set.
      EXPECT_FALSE(std::filesystem::exists(options.spill_dir));
    }
  }
}

TEST_F(OutOfCoreTest, PartitionBudgetKnob) {
  auto db_or = datagen::GenerateQuestData({.num_transactions = 6000,
                                           .num_items = 300,
                                           .avg_transaction_size = 12.0,
                                           .seed = 2024});
  ASSERT_TRUE(db_or.ok());
  const std::string input = (dir_ / "quest.bin").string();
  ASSERT_TRUE(io::WriteBinaryTransactionFile(*db_or, input).ok());

  MinerOptions miner;
  miner.support.min_count = 300;
  miner.support.cell_fraction = 0.26;
  miner.max_level = 3;

  auto session_or = MiningSession::Open(input, {});
  ASSERT_TRUE(session_or.ok());
  auto expected_or = session_or->Mine(miner);
  ASSERT_TRUE(expected_or.ok());

  // An explicit sub-floor partition budget is honored verbatim: ~290 KB
  // of row bytes against a 64 KiB partition budget forces several
  // partitions even under a roomy memory budget — and the result is
  // still byte-identical.
  OutOfCoreMinerOptions options;
  options.miner = miner;
  options.miner.num_threads = 2;
  options.memory_budget_bytes = uint64_t{64} << 20;
  options.partition_budget_bytes = uint64_t{64} << 10;
  options.spill_dir = (dir_ / "spill_tiny").string();
  OutOfCoreStats stats;
  auto result_or = MineCorrelationsOutOfCore(input, options, &stats);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  EXPECT_EQ(Fingerprint(*result_or), Fingerprint(*expected_or));
  EXPECT_GE(stats.partitions, 3u);

  // partition budget == memory budget is the forced-serial knob: the
  // admission controller must degrade to one partition in flight.
  options.partition_budget_bytes = options.memory_budget_bytes;
  options.spill_dir = (dir_ / "spill_serial").string();
  OutOfCoreStats serial_stats;
  auto serial_or = MineCorrelationsOutOfCore(input, options, &serial_stats);
  ASSERT_TRUE(serial_or.ok()) << serial_or.status().ToString();
  EXPECT_EQ(serial_stats.admitted, 1);
  EXPECT_EQ(Fingerprint(*serial_or), Fingerprint(*expected_or));

  // A partition budget above the memory budget is a contradiction.
  options.partition_budget_bytes = options.memory_budget_bytes + 1;
  EXPECT_FALSE(MineCorrelationsOutOfCore(input, options).ok());
}

TEST_F(OutOfCoreTest, FailedRunLeavesSpillDirEmpty) {
  // A valid segment followed by a garbage tail: the spill pass closes
  // several partitions (tiny explicit partition budget), then hits the
  // stream error — the guard must still remove every spilled file and the
  // directory itself.
  auto db_or = datagen::GenerateQuestData({.num_transactions = 6000,
                                           .num_items = 300,
                                           .avg_transaction_size = 12.0,
                                           .seed = 11});
  ASSERT_TRUE(db_or.ok());
  const std::string input = (dir_ / "truncated.bin").string();
  {
    std::ofstream out(input, std::ios::binary);
    const std::string encoded = io::EncodeBinaryTransactions(*db_or);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    const std::string garbage = "CMB1\xff\xff\xff\xff\xff\xff\xff\xff";
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }

  OutOfCoreMinerOptions options;
  options.miner.support.min_count = 300;
  options.miner.support.cell_fraction = 0.26;
  options.miner.max_level = 3;
  options.miner.num_threads = 2;
  options.memory_budget_bytes = uint64_t{64} << 20;
  options.partition_budget_bytes = uint64_t{64} << 10;
  options.spill_dir = (dir_ / "spill_failed").string();
  auto result_or = MineCorrelationsOutOfCore(input, options);
  EXPECT_FALSE(result_or.ok());
  EXPECT_FALSE(std::filesystem::exists(options.spill_dir))
      << "failed run left spill files behind";

  // keep_spill opts out of the cleanup even on error, for postmortems.
  options.keep_spill = true;
  options.spill_dir = (dir_ / "spill_kept").string();
  EXPECT_FALSE(MineCorrelationsOutOfCore(input, options).ok());
  ASSERT_TRUE(std::filesystem::exists(options.spill_dir));
  size_t kept = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.spill_dir)) {
    (void)entry;
    ++kept;
  }
  EXPECT_GE(kept, 2u) << "expected several closed partitions before the "
                         "stream error";
}

TEST_F(OutOfCoreTest, SweepFailureReturnsStatus) {
  // A partition file that vanishes between levels: the level-3 sweep
  // cannot map it. The walk must not abort the process; the mine returns
  // the sweep's error instead of a result, and the guard still empties
  // the spill dir.
  auto db_or = datagen::GenerateQuestData({.num_transactions = 6000,
                                           .num_items = 300,
                                           .avg_transaction_size = 12.0,
                                           .seed = 2024});
  ASSERT_TRUE(db_or.ok());
  const std::string input = (dir_ / "quest.bin").string();
  ASSERT_TRUE(io::WriteBinaryTransactionFile(*db_or, input).ok());

  OutOfCoreMinerOptions options;
  options.miner.support.min_count = 300;
  options.miner.support.cell_fraction = 0.26;
  options.miner.max_level = 3;
  options.memory_budget_bytes = uint64_t{64} << 20;
  options.partition_budget_bytes = uint64_t{64} << 10;
  options.spill_dir = (dir_ / "spill_vanish").string();
  bool removed = false;
  options.miner.progress = [&](const MinerProgress& progress) {
    if (progress.level != 2) return;
    std::error_code ec;
    std::filesystem::remove(
        std::filesystem::path(options.spill_dir) / "part-1.ccs", ec);
    removed = !ec;
  };
  for (const int threads : {1, 4}) {
    options.miner.num_threads = threads;
    removed = false;
    auto result_or = MineCorrelationsOutOfCore(input, options);
    ASSERT_TRUE(removed) << "threads " << threads;
    EXPECT_FALSE(result_or.ok()) << "threads " << threads;
    EXPECT_FALSE(std::filesystem::exists(options.spill_dir))
        << "failed sweep left spill files behind";
  }
}

TEST_F(OutOfCoreTest, MultiplePartitionsStayExact) {
  // ~14000 baskets x ~18 items x 4 bytes = ~1 MiB of row bytes; an 8 MiB
  // budget (partition floor max(8M/6, 1MiB) = ~1.4 MiB) still fits in one
  // partition, so build a bigger dataset and use the floor: 60k baskets
  // ~ 4.3 MiB of rows over the 1.4 MiB threshold => >= 3 partitions.
  // 870 items keeps mean item frequency (~2%) under the 3% support floor
  // so the lattice stays small; the point of this fixture is partition
  // count, which row bytes (60k x ~18 x 4B ~ 4.3 MiB of rows vs the
  // ~1.4 MiB partition floor) already guarantees.
  auto db_or = datagen::GenerateQuestData({.num_transactions = 60000,
                                           .num_items = 870,
                                           .avg_transaction_size = 18.0,
                                           .seed = 7});
  ASSERT_TRUE(db_or.ok());
  const std::string input = (dir_ / "quest_big.bin").string();
  ASSERT_TRUE(io::WriteBinaryTransactionFile(*db_or, input).ok());

  MinerOptions miner;
  miner.support.min_count = 1800;
  miner.support.cell_fraction = 0.26;
  miner.max_level = 3;

  auto session_or = MiningSession::Open(input, {});
  ASSERT_TRUE(session_or.ok());
  auto expected_or = session_or->Mine(miner);
  ASSERT_TRUE(expected_or.ok());

  OutOfCoreMinerOptions options;
  options.miner = miner;
  options.miner.num_threads = 2;
  MetricsRegistry registry;
  options.miner.metrics = &registry;
  options.memory_budget_bytes = uint64_t{8} << 20;
  options.spill_dir = (dir_ / "spill").string();
  options.keep_spill = true;
  OutOfCoreStats stats;
  auto result_or = MineCorrelationsOutOfCore(input, options, &stats);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  EXPECT_EQ(Fingerprint(*result_or), Fingerprint(*expected_or));
  EXPECT_GE(stats.partitions, 2u) << "dataset did not force partitioning";
  EXPECT_GT(stats.spilled_payload_bytes, 0u);
  // Peak-RSS gauges land at both phase boundaries so an operator can see
  // whether the spill or the walk owned the memory high-water mark.
  if (kMetricsEnabled) {
    EXPECT_GT(registry.GetGauge("mem.peak_rss_spill_bytes")->Value(), 0);
    // RSS is monotone over the run, so the walk's reading dominates the
    // spill's.
    EXPECT_GE(registry.GetGauge("mem.peak_rss_walk_bytes")->Value(),
              registry.GetGauge("mem.peak_rss_spill_bytes")->Value());
  }
  // keep_spill leaves the CCS1 partitions on disk.
  size_t spill_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.spill_dir)) {
    (void)entry;
    ++spill_files;
  }
  EXPECT_EQ(spill_files, stats.partitions);
}

TEST_F(OutOfCoreTest, TextInputAndAppendedBinarySegments) {
  // Text input: streamed line-by-line; num_items = max id + 1. The last
  // basket repeats and reorders ids, which the spill must normalize the
  // way the in-memory loader does.
  const std::string text_path = (dir_ / "tiny.txt").string();
  {
    std::ofstream out(text_path);
    out << "# comment\n0 1 2\n1 2\n0 2\n2 3\n0 1\n1 2 3\n3 1 3\n";
  }
  MinerOptions miner;
  miner.support.min_count = 1;
  auto session_or = MiningSession::Open(text_path, {});
  ASSERT_TRUE(session_or.ok());
  auto expected_or = session_or->Mine(miner);
  ASSERT_TRUE(expected_or.ok());
  OutOfCoreMinerOptions options;
  options.miner = miner;
  options.spill_dir = (dir_ / "spill_text").string();
  OutOfCoreStats stats;
  auto result_or = MineCorrelationsOutOfCore(text_path, options, &stats);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  EXPECT_EQ(Fingerprint(*result_or), Fingerprint(*expected_or));
  EXPECT_EQ(stats.num_items, 4u);

  // Appended multi-segment binary (ingest --append layout): the stream
  // reader must decode segment-at-a-time and honor the max header space.
  auto base_or = datagen::GenerateQuestData({.num_transactions = 800,
                                             .num_items = 120,
                                             .avg_transaction_size = 8.0,
                                             .seed = 3});
  auto delta_or = datagen::GenerateQuestData({.num_transactions = 500,
                                              .num_items = 120,
                                              .avg_transaction_size = 8.0,
                                              .seed = 4});
  ASSERT_TRUE(base_or.ok());
  ASSERT_TRUE(delta_or.ok());
  const std::string chunked = (dir_ / "chunked.bin").string();
  {
    std::ofstream out(chunked, std::ios::binary);
    const std::string a = io::EncodeBinaryTransactions(*base_or);
    const std::string b = io::EncodeBinaryTransactions(*delta_or);
    out.write(a.data(), static_cast<std::streamsize>(a.size()));
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  }
  MinerOptions chunk_miner;
  chunk_miner.support.min_count = 25;
  chunk_miner.max_level = 3;
  auto chunk_session_or = MiningSession::Open(chunked, {});
  ASSERT_TRUE(chunk_session_or.ok());
  auto chunk_expected_or = chunk_session_or->Mine(chunk_miner);
  ASSERT_TRUE(chunk_expected_or.ok());
  OutOfCoreMinerOptions chunk_options;
  chunk_options.miner = chunk_miner;
  chunk_options.spill_dir = (dir_ / "spill_chunk").string();
  OutOfCoreStats chunk_stats;
  auto chunk_result_or =
      MineCorrelationsOutOfCore(chunked, chunk_options, &chunk_stats);
  ASSERT_TRUE(chunk_result_or.ok()) << chunk_result_or.status().ToString();
  EXPECT_EQ(Fingerprint(*chunk_result_or), Fingerprint(*chunk_expected_or));
  EXPECT_EQ(chunk_stats.num_baskets, 1300u);
}

TEST_F(OutOfCoreTest, ErrorPaths) {
  OutOfCoreMinerOptions options;
  options.spill_dir = (dir_ / "spill_err").string();
  EXPECT_FALSE(
      MineCorrelationsOutOfCore((dir_ / "missing.bin").string(), options)
          .ok());
  options.memory_budget_bytes = 0;
  EXPECT_FALSE(
      MineCorrelationsOutOfCore((dir_ / "missing.bin").string(), options)
          .ok());
}

}  // namespace
}  // namespace corrmine
