// Differential harness for incremental mining (DESIGN.md §11): after EVERY
// delta batch — randomized appends and sliding-window retirements — border
// repair must reproduce a from-scratch mine of the current window bit for
// bit: rule bytes (double bit patterns, not epsilon compares), level stats,
// and the rendered deterministic stats line. The matrix dimension re-proves
// it for every (threads × shards) layout, because repair re-deals the
// round-robin layout on retirement and leans on the K-invariance contract
// (DESIGN.md §7) for that to be unobservable.

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/border_repair.h"
#include "core/border_state.h"
#include "core/chi_squared_miner.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/stats_json.h"

namespace corrmine {
namespace {

/// Bit pattern of a double: the compare must fail on "close enough" floats
/// from a different summation order.
uint64_t Bits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Every observable byte of a mining result, frontier included (repair runs
/// with keep_frontier on in these tests so the NOTSIG border is part of the
/// contract, not just the SIG rules).
std::string ExactFingerprint(const MiningResult& result) {
  std::string out;
  for (const CorrelationRule& rule : result.significant) {
    out += rule.itemset.ToString();
    out += ':' + std::to_string(Bits(rule.chi2.statistic));
    out += ':' + std::to_string(Bits(rule.chi2.p_value));
    out += ':' + std::to_string(rule.chi2.dof);
    out += ':' + std::to_string(rule.chi2.validity.masked_cells);
    out += ':' + std::to_string(rule.major_dependence.mask);
    out += ':' + std::to_string(rule.major_dependence.observed);
    out += ':' + std::to_string(Bits(rule.major_dependence.interest));
    out += ';';
  }
  out += '|';
  for (const LevelStats& level : result.levels) {
    out += std::to_string(level.level) + '/' +
           std::to_string(level.possible_itemsets) + '/' +
           std::to_string(level.candidates) + '/' +
           std::to_string(level.discards) + '/' +
           std::to_string(level.chi2_tests) + '/' +
           std::to_string(level.masked_cells) + '/' +
           std::to_string(level.significant) + '/' +
           std::to_string(level.not_significant) + ';';
  }
  out += '|';
  for (const Itemset& s : result.frontier) {
    out += s.ToString();
    out += ';';
  }
  return out;
}

TransactionDatabase QuestChunk(uint64_t seed, uint64_t baskets,
                               uint32_t items) {
  datagen::QuestOptions quest;
  quest.num_transactions = baskets;
  quest.num_items = items;
  quest.avg_transaction_size = 8.0;
  quest.num_patterns = 12;
  quest.seed = seed;
  auto db = datagen::GenerateQuestData(quest);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

MinerOptions IncrementalMinerOptions() {
  MinerOptions options;
  options.support.min_count = 15;
  options.support.cell_fraction = 0.25;
  options.max_level = 3;
  options.keep_frontier = true;
  return options;
}

/// The from-scratch reference for the miner's current window: a fresh
/// canonical (1-thread, 1-shard, memo-free) session over the same rows and
/// the SAME item space — the incremental side's item space is monotone, so
/// the reference must be built at inc.session().num_items(), not at the
/// window's own max id.
std::string ReferenceFingerprint(const IncrementalMiner& inc,
                                 const MinerOptions& options,
                                 std::string* stats_line) {
  TransactionDatabase rows = inc.session().Flatten();
  SessionOptions canonical;
  canonical.num_threads = 1;
  canonical.num_shards = 1;
  auto session = MiningSession::FromDatabase(rows, canonical);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  auto result = session->Mine(options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  *stats_line = RenderDeterministicStats(*result);
  return ExactFingerprint(*result);
}

/// One scripted delta schedule, shared by every matrix cell so all layouts
/// face identical data: append / append / retire / append(wider item
/// space) / retire / append, with chunk sizes drawn from a seeded RNG.
struct DeltaOp {
  bool retire = false;
  uint64_t seed = 0;
  uint64_t baskets = 0;
  uint32_t items = 0;
};

std::vector<DeltaOp> ScriptedSchedule() {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<uint64_t> size(20, 60);
  std::vector<DeltaOp> ops;
  auto append = [&](uint32_t items) {
    ops.push_back({false, rng(), size(rng), items});
  };
  append(50);
  append(50);
  ops.push_back({true});
  append(58);  // wider item space: the window must grow to cover it
  ops.push_back({true});
  append(50);
  return ops;
}

TEST(IncrementalDifferentialTest, RepairMatchesScratchAfterEveryBatch) {
  const MinerOptions options = IncrementalMinerOptions();
  const std::vector<DeltaOp> schedule = ScriptedSchedule();

  for (int threads : {1, 4}) {
    for (int shards : {1, 3}) {
      SessionOptions session_options;
      session_options.num_threads = threads;
      session_options.num_shards = shards;
      auto inc = IncrementalMiner::Create(QuestChunk(1997, 400, 50),
                                          session_options, options);
      ASSERT_TRUE(inc.ok()) << inc.status().ToString();

      // Batch 0: the initial full mine through an empty memo.
      int batch = 0;
      auto check = [&](const char* what) {
        auto repaired = inc->Repair();
        ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
        std::string want_stats;
        std::string want = ReferenceFingerprint(*inc, options, &want_stats);
        EXPECT_EQ(ExactFingerprint(*repaired), want)
            << "threads " << threads << " shards " << shards << " batch "
            << batch << " (" << what << ")";
        EXPECT_EQ(RenderDeterministicStats(*repaired), want_stats)
            << "threads " << threads << " shards " << shards << " batch "
            << batch << " (" << what << ")";
        ASSERT_FALSE(repaired->significant.empty()) << "degenerate fixture";
      };
      check("initial");

      for (const DeltaOp& op : schedule) {
        ++batch;
        if (op.retire) {
          ASSERT_TRUE(inc->RetireOldest().ok());
          check("retire");
        } else {
          ASSERT_TRUE(
              inc->Append(QuestChunk(op.seed, op.baskets, op.items)).ok());
          check("append");
        }
      }
    }
  }
}

// Snapshot persistence composes with repair: serialize the state mid-stream,
// decode it into a fresh BorderState, repair against the live session, and
// the result must still be byte-identical to from-scratch. This is the CLI
// --border-out / --resume-from loop without the filesystem.
TEST(IncrementalDifferentialTest, RoundTrippedSnapshotRepairsIdentically) {
  const MinerOptions options = IncrementalMinerOptions();
  SessionOptions session_options;
  session_options.num_threads = 2;
  session_options.num_shards = 2;
  auto inc = IncrementalMiner::Create(QuestChunk(7, 300, 48),
                                      session_options, options);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(inc->Repair().ok());
  ASSERT_TRUE(inc->Append(QuestChunk(8, 40, 48)).ok());

  std::string bytes = EncodeBorderState(inc->state());
  auto reloaded = DecodeBorderState(bytes);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  auto repaired = RepairBorder(inc->session(), &*reloaded);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  std::string want_stats;
  std::string want = ReferenceFingerprint(*inc, options, &want_stats);
  EXPECT_EQ(ExactFingerprint(*repaired), want);
  EXPECT_EQ(RenderDeterministicStats(*repaired), want_stats);
}

// A second repair with no intervening delta must be pure memo traffic: the
// window is unchanged, every query the walk issues was memoized by the
// first repair, so the database is never touched.
TEST(IncrementalDifferentialTest, SteadyStateRepairIsAllMemoHits) {
  const MinerOptions options = IncrementalMinerOptions();
  SessionOptions session_options;
  auto inc = IncrementalMiner::Create(QuestChunk(42, 300, 48),
                                      session_options, options);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(inc->Repair().ok());

  BorderState* state = inc->mutable_state();
  MemoCountProvider memo(&state->counts, inc->session().provider());
  MinerOptions repair_options = state->config.ToMinerOptions();
  auto result =
      MineCorrelations(memo, inc->session().num_items(), repair_options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(memo.memo_misses(), 0u)
      << "an unchanged window re-counted the database";
  EXPECT_GT(memo.memo_hits(), 0u);
}

}  // namespace
}  // namespace corrmine
