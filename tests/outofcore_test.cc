// Out-of-core mining acceptance: the spill-and-sweep miner must produce
// byte-identical results to the in-memory miner on every dataset where both
// run, across thread counts and partition-forcing memory budgets, and must
// ask exactly the in-memory walk's count questions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/column_store.h"
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

/// splitmix64: a fixed hash, so the synthetic fixture below is the same
/// on every platform and standard library.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Baskets whose spill columns take every container kind: item 0 is in
/// six rows of seven (dense blocks), item 1 in alternate 5 000-row
/// stretches (runs), items 2..31 in about 2% of rows (arrays) and items
/// 32..35 in about 12% (dense). About 2.4 items, so 9.8 row bytes, a row.
TransactionDatabase SpillFixture(uint64_t rows) {
  TransactionDatabase db(36);
  for (uint64_t r = 0; r < rows; ++r) {
    std::vector<ItemId> basket;
    if (r % 7 != 3) basket.push_back(0);
    if ((r / 5000) % 2 == 0) basket.push_back(1);
    for (ItemId item = 2; item < 36; ++item) {
      const uint64_t h = Mix(r * 64 + item) % 1000;
      if (h < (item < 32 ? 20u : 120u)) basket.push_back(item);
    }
    EXPECT_TRUE(db.AddBasket(std::move(basket)).ok());
  }
  return db;
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

bool EmptyOrAbsent(const std::filesystem::path& dir) {
  return !std::filesystem::exists(dir) || std::filesystem::is_empty(dir);
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

  // At 1 thread the closes run inline; at 2 and 4 each runs on the pool
  // while the reader goes on, and the stream error can arrive with one in
  // flight.
  for (const int threads : {1, 2, 4}) {
    const std::string suffix = "_t" + std::to_string(threads);
    OutOfCoreMinerOptions options;
    options.miner.support.min_count = 300;
    options.miner.support.cell_fraction = 0.26;
    options.miner.max_level = 3;
    options.miner.num_threads = threads;
    options.memory_budget_bytes = uint64_t{64} << 20;
    options.partition_budget_bytes = uint64_t{64} << 10;
    options.spill_dir = (dir_ / ("spill_failed" + suffix)).string();
    auto result_or = MineCorrelationsOutOfCore(input, options);
    EXPECT_FALSE(result_or.ok()) << "threads " << threads;
    EXPECT_TRUE(result_or.status().IsCorruption())
        << "threads " << threads << ": " << result_or.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(options.spill_dir))
        << "failed run left spill files behind at threads " << threads;

    // keep_spill opts out of the cleanup even on error, for postmortems.
    options.keep_spill = true;
    options.spill_dir = (dir_ / ("spill_kept" + suffix)).string();
    EXPECT_FALSE(MineCorrelationsOutOfCore(input, options).ok());
    ASSERT_TRUE(std::filesystem::exists(options.spill_dir));
    size_t kept = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.spill_dir)) {
      (void)entry;
      ++kept;
    }
    EXPECT_GE(kept, 2u) << "expected several closed partitions before the "
                           "stream error at threads "
                        << threads;
  }
}

TEST_F(OutOfCoreTest, FailedCloseWinsAtEveryThreadCount) {
  // part-2.ccs already exists as a directory, so the third close cannot
  // open its file. The partition budget is 2/7 of the row bytes: closes
  // 0, 1 and 2 run during the stream and a partial partition is left. On
  // the input with a garbage tail the reader fails while close 2 may still
  // be in flight; the serial spill stopped at the close, so its IOError
  // must win there too.
  auto db_or = datagen::GenerateQuestData({.num_transactions = 6000,
                                           .num_items = 300,
                                           .avg_transaction_size = 12.0,
                                           .seed = 11});
  ASSERT_TRUE(db_or.ok());
  uint64_t row_bytes = 0;
  for (size_t b = 0; b < db_or->num_baskets(); ++b) {
    row_bytes += db_or->basket(b).size() * sizeof(uint32_t);
  }
  const std::string encoded = io::EncodeBinaryTransactions(*db_or);
  const std::string clean = (dir_ / "clean.bin").string();
  const std::string tailed = (dir_ / "tailed.bin").string();
  {
    std::ofstream out(clean, std::ios::binary);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  }
  {
    std::ofstream out(tailed, std::ios::binary);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    const std::string garbage = "CMB1\xff\xff\xff\xff\xff\xff\xff\xff";
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  for (const std::string& input : {clean, tailed}) {
    for (const int threads : {1, 2, 4}) {
      OutOfCoreMinerOptions options;
      options.miner.support.min_count = 300;
      options.miner.support.cell_fraction = 0.26;
      options.miner.max_level = 3;
      options.miner.num_threads = threads;
      options.memory_budget_bytes = uint64_t{64} << 20;
      options.partition_budget_bytes = row_bytes * 2 / 7;
      const std::filesystem::path spill =
          dir_ / ("spill_t" + std::to_string(threads));
      options.spill_dir = spill.string();
      std::filesystem::create_directories(spill / "part-2.ccs");
      auto result_or = MineCorrelationsOutOfCore(input, options);
      ASSERT_FALSE(result_or.ok()) << input << ", threads " << threads;
      EXPECT_TRUE(result_or.status().IsIOError())
          << input << ", threads " << threads << ": "
          << result_or.status().ToString();
      EXPECT_NE(result_or.status().message().find("part-2.ccs"),
                std::string::npos)
          << result_or.status().ToString();
      EXPECT_TRUE(EmptyOrAbsent(spill))
          << "failed close left spill files behind: " << input
          << ", threads " << threads;
      std::error_code ec;
      std::filesystem::remove_all(spill, ec);
    }
  }
}

TEST_F(OutOfCoreTest, SpillFilesAreByteIdenticalAcrossThreads) {
  // Five partitions; the four full ones hold about 143 000 rows, so each
  // spans three 2^16-row blocks and its columns mix array, dense and run
  // containers. The files must not depend on the thread count, must map
  // back to exactly their baskets' rows, and must hash to the digest the
  // serial spill wrote before closes moved onto the pool: any drift of the
  // CCS bytes or of the partition cuts fails here.
  constexpr uint64_t kRows = 650000;
  constexpr uint64_t kSpillDigest = 7740751667985643087ULL;
  const TransactionDatabase db = SpillFixture(kRows);
  const std::string input = (dir_ / "fixture.bin").string();
  ASSERT_TRUE(io::WriteBinaryTransactionFile(db, input).ok());

  std::vector<std::string> baseline;
  for (const int threads : {1, 2, 4}) {
    OutOfCoreMinerOptions options;
    options.miner.support.min_count = kRows / 20;
    options.miner.support.cell_fraction = 0.26;
    options.miner.max_level = 3;
    options.miner.num_threads = threads;
    options.memory_budget_bytes = uint64_t{64} << 20;
    options.partition_budget_bytes = 1400000;
    options.keep_spill = true;
    const std::filesystem::path spill =
        dir_ / ("spill_t" + std::to_string(threads));
    options.spill_dir = spill.string();
    OutOfCoreStats stats;
    auto result_or = MineCorrelationsOutOfCore(input, options, &stats);
    ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
    ASSERT_GE(stats.partitions, 4u);

    std::vector<std::string> files;
    uint64_t digest = 1469598103934665603ULL;
    uint64_t first_row = 0;
    size_t widest = 0;
    for (uint64_t p = 0; p < stats.partitions; ++p) {
      const std::filesystem::path file =
          spill / ("part-" + std::to_string(p) + ".ccs");
      files.push_back(ReadFile(file));
      digest = Fnv1a(files.back(), digest);
      auto shard_or = io::MappedColumnShard::Open(file.string());
      ASSERT_TRUE(shard_or.ok()) << shard_or.status().ToString();
      const io::MappedColumnShard& shard = **shard_or;
      widest = std::max(widest, shard.num_rows());
      // The partition's rows, item by item, as offsets from its first row.
      std::vector<std::vector<uint32_t>> expected;
      for (uint64_t r = 0; r < shard.num_rows(); ++r) {
        for (const ItemId item : db.basket(first_row + r)) {
          if (item >= expected.size()) expected.resize(item + 1);
          expected[item].push_back(static_cast<uint32_t>(r));
        }
      }
      ASSERT_EQ(shard.num_columns(), expected.size()) << "partition " << p;
      for (ItemId item = 0; item < shard.num_columns(); ++item) {
        EXPECT_EQ(shard.column(item).ToRows(), expected[item])
            << "partition " << p << ", item " << item;
      }
      first_row += shard.num_rows();
    }
    EXPECT_EQ(first_row, kRows);
    EXPECT_GT(widest, size_t{2} << 16) << "no partition spans three blocks";
    EXPECT_EQ(digest, kSpillDigest) << "threads " << threads;
    if (baseline.empty()) {
      baseline = files;
    } else {
      EXPECT_TRUE(files == baseline)
          << "threads " << threads << " wrote other spill bytes";
    }
  }
}

TEST_F(OutOfCoreTest, SpillBuffersKeepOnlyTheirLastPartition) {
  // Eight partitions of 70 000 rows, each drawing three distinct items a
  // row from its own 64 items, so no item comes back in a later partition;
  // the partition's last item first appears after its first 2^16-row block
  // boundary. The reader's two buffers may keep capacity from partition to
  // partition, but only what each one's last partition used: at most three
  // partition charges here (mem.spill_buffer_bytes), however many
  // partitions the file has. The spill files still map back to exactly
  // their baskets' rows.
  constexpr uint64_t kPartitionRows = 70000;
  constexpr uint64_t kPartitions = 8;
  constexpr ItemId kItemsEach = 64;
  constexpr uint64_t kRows = kPartitionRows * kPartitions;
  TransactionDatabase db(kItemsEach * kPartitions);
  for (uint64_t r = 0; r < kRows; ++r) {
    const uint64_t local = r % kPartitionRows;
    const ItemId first = static_cast<ItemId>(r / kPartitionRows) * kItemsEach;
    std::vector<ItemId> basket;
    for (uint64_t k = 0; basket.size() < 3; ++k) {
      // Item first + 63 only after the boundary, in one row of 50.
      const ItemId pick = static_cast<ItemId>(Mix(r * 16 + k) % 63);
      const ItemId item = (local > 66000 && local % 50 == 0 && basket.empty())
                              ? first + kItemsEach - 1
                              : first + pick;
      if (std::find(basket.begin(), basket.end(), item) == basket.end()) {
        basket.push_back(item);
      }
    }
    std::sort(basket.begin(), basket.end());
    ASSERT_TRUE(db.AddBasket(std::move(basket)).ok());
  }
  const std::string input = (dir_ / "drift.bin").string();
  ASSERT_TRUE(io::WriteBinaryTransactionFile(db, input).ok());

  const uint64_t charge = kPartitionRows * 3 * sizeof(uint32_t);
  for (const int threads : {1, 2}) {
    OutOfCoreMinerOptions options;
    options.miner.support.min_count = kRows / 20;
    options.miner.support.cell_fraction = 0.26;
    options.miner.max_level = 2;
    options.miner.num_threads = threads;
    options.memory_budget_bytes = uint64_t{64} << 20;
    options.partition_budget_bytes = charge;
    options.keep_spill = true;
    const std::filesystem::path spill =
        dir_ / ("spill_t" + std::to_string(threads));
    options.spill_dir = spill.string();
    MetricsRegistry::Global().Reset();
    OutOfCoreStats stats;
    auto result_or = MineCorrelationsOutOfCore(input, options, &stats);
    ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
    ASSERT_EQ(stats.partitions, kPartitions);
    const int64_t held =
        MetricsRegistry::Global().GetGauge("mem.spill_buffer_bytes")->Value();
    EXPECT_GT(held, 0);
    EXPECT_LE(static_cast<uint64_t>(held), 3 * charge)
        << "threads " << threads;

    for (uint64_t p = 0; p < kPartitions; ++p) {
      const std::filesystem::path file =
          spill / ("part-" + std::to_string(p) + ".ccs");
      auto shard_or = io::MappedColumnShard::Open(file.string());
      ASSERT_TRUE(shard_or.ok()) << shard_or.status().ToString();
      const io::MappedColumnShard& shard = **shard_or;
      ASSERT_EQ(shard.num_rows(), kPartitionRows);
      ASSERT_EQ(shard.num_columns(), (p + 1) * kItemsEach);
      std::vector<std::vector<uint32_t>> expected(shard.num_columns());
      for (uint64_t r = 0; r < kPartitionRows; ++r) {
        for (const ItemId item : db.basket(p * kPartitionRows + r)) {
          expected[item].push_back(static_cast<uint32_t>(r));
        }
      }
      EXPECT_FALSE(expected[(p + 1) * kItemsEach - 1].empty());
      for (ItemId item = 0; item < shard.num_columns(); ++item) {
        EXPECT_EQ(shard.column(item).ToRows(), expected[item])
            << "threads " << threads << ", partition " << p << ", item "
            << item;
      }
    }
  }
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
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
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
  EXPECT_GT(registry.GetGauge("mem.peak_rss_spill_bytes")->Value(), 0);
  // RSS is monotone over the run, so the walk's reading dominates the
  // spill's.
  EXPECT_GE(registry.GetGauge("mem.peak_rss_walk_bytes")->Value(),
            registry.GetGauge("mem.peak_rss_spill_bytes")->Value());
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
