#include "common/metrics.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/chi_squared_miner.h"
#include "core/chi_squared_test.h"
#include "core/contingency_table.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/transaction_io.h"
#include "itemset/count_provider.h"

namespace corrmine {
namespace {

TEST(CounterTest, AddsAndSums) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) c->Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(7);
  g->Set(-3);
  EXPECT_EQ(g->Value(), -3);
}

TEST(HistogramTest, TracksCountSumMinMax) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist");
  h->Observe(1);
  h->Observe(100);
  h->Observe(7);
  Histogram::Data data = h->Value();
  EXPECT_EQ(data.count, 3u);
  EXPECT_EQ(data.sum, 108u);
  EXPECT_EQ(data.min, 1u);
  EXPECT_EQ(data.max, 100u);
  uint64_t bucket_total = 0;
  for (uint64_t b : data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 3u);
}

TEST(RegistryTest, SameNameSameHandle) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_NE(registry.GetCounter("x"), registry.GetCounter("y"));
  EXPECT_EQ(registry.GetHistogram("x"), registry.GetHistogram("x"));
}

TEST(RegistryTest, ResetKeepsHandlesValidAndZeroes) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("reset.me");
  c->Add(5);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  c->Add(2);  // Handle still live after Reset.
  EXPECT_EQ(c->Value(), 2u);
}

TEST(RegistryTest, ToJsonHasSchemaSections) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Add(3);
  std::string json = registry.ToJson();
  EXPECT_EQ(json.find("{\"counters\":{\"a.count\":3}"), 0u) << json;
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // Single line by construction (grep-comparable).
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// --- Instrumentation determinism across thread counts -----------------

datagen::QuestOptions SmallQuest() {
  datagen::QuestOptions quest;
  quest.num_transactions = 2000;
  quest.num_items = 60;
  quest.avg_transaction_size = 8.0;
  quest.num_patterns = 15;
  return quest;
}

MinerOptions SmallMinerOptions() {
  MinerOptions options;
  options.support.min_count = 20;
  options.support.cell_fraction = 0.25;
  return options;
}

TEST(MinerMetricsTest, RegistryCountersMatchLevelStats) {
  auto db = datagen::GenerateQuestData(SmallQuest());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BitmapCountProvider provider(*db);
  MinerOptions options = SmallMinerOptions();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  auto result = MineCorrelations(provider, db->num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->levels.empty());

  uint64_t candidates = 0, chi2_tests = 0, sig = 0, masked = 0;
  for (const LevelStats& level : result->levels) {
    candidates += level.candidates;
    chi2_tests += level.chi2_tests;
    sig += level.significant;
    masked += level.masked_cells;
    EXPECT_EQ(level.chi2_tests, level.candidates - level.discards);
  }
  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("miner.candidates"), candidates);
  EXPECT_EQ(snap.counters.at("miner.chi2_tests"), chi2_tests);
  EXPECT_EQ(snap.counters.at("miner.sig"), sig);
  EXPECT_EQ(snap.counters.at("miner.masked_cells"), masked);
  EXPECT_EQ(snap.counters.at("miner.runs"), 1u);
  EXPECT_EQ(snap.counters.at("miner.levels"), result->levels.size());
  EXPECT_GE(snap.histograms.at("miner.level.ns").count,
            result->levels.size());
  // A mined level is one count batch, one evaluation pass and (when a
  // deeper level may follow) one generation pass, each its own phase.
  EXPECT_EQ(snap.counters.at("miner.count_batch.calls"),
            result->levels.size());
  EXPECT_EQ(snap.counters.at("miner.evaluate.calls"), result->levels.size());
  EXPECT_EQ(snap.histograms.at("miner.evaluate.ns").count,
            result->levels.size());
  // The level-boundary peak-RSS gauge: set after every completed level, so
  // a finished run always carries the process high-water mark.
  ASSERT_EQ(snap.gauges.count("mem.peak_rss_bytes"), 1u);
  EXPECT_GT(snap.gauges.at("mem.peak_rss_bytes"), 0);
}

TEST(MinerMetricsTest, HeartbeatsCarryTheEvaluateAndGeneratePhases) {
  // The --progress heartbeat reports each level's evaluate and generate
  // time from the very Phase scopes that feed the histograms, so summed
  // over a run the heartbeats reproduce the histograms' sums exactly.
  auto db = datagen::GenerateQuestData(SmallQuest());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BitmapCountProvider provider(*db);
  MinerOptions options = SmallMinerOptions();
  options.num_threads = 2;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  std::vector<MinerProgress> heartbeats;
  options.progress = [&](const MinerProgress& p) { heartbeats.push_back(p); };
  auto result = MineCorrelations(provider, db->num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(heartbeats.size(), result->levels.size());
  ASSERT_GE(heartbeats.size(), 2u) << "fixture mined a single level";

  uint64_t evaluate_ns = 0;
  uint64_t generate_ns = 0;
  for (const MinerProgress& p : heartbeats) {
    EXPECT_GT(p.evaluate_ns, 0u) << "level " << p.level;
    evaluate_ns += p.evaluate_ns;
    generate_ns += p.generate_ns;
  }
  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(evaluate_ns, snap.histograms.at("miner.evaluate.ns").sum);
  EXPECT_EQ(generate_ns, snap.histograms.at("miner.generate.ns").sum);
}

TEST(SessionMetricsTest, OpenTimesLoadOnceAndIndexesRowInputsOnce) {
  auto db = datagen::GenerateQuestData(SmallQuest());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::string binary = ::testing::TempDir() + "/metrics_session.bin";
  const std::string text = ::testing::TempDir() + "/metrics_session.txt";
  ASSERT_TRUE(io::WriteBinaryTransactionFile(*db, binary).ok());
  ASSERT_TRUE(io::WriteTransactionFile(*db, text).ok());
  auto open = [](const std::string& path) {
    MetricsRegistry::Global().Reset();
    SessionOptions options;
    options.num_shards = 2;
    auto session = MiningSession::Open(path, options);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    return MetricsRegistry::Global().Snap();
  };
  // A CMB1 file decodes straight into the bitmaps: set-up is one phase,
  // io.load, with one name across histogram, trace and PMU.
  MetricsRegistry::Snapshot snap = open(binary);
  EXPECT_EQ(snap.counters.at("io.load.calls"), 1u);
  EXPECT_EQ(snap.histograms.at("io.load.ns").count, 1u);
  EXPECT_EQ(snap.counters["session.build_index.calls"], 0u);
  // Text is parsed into rows (io.load), which are then indexed
  // (session.build_index) and dropped.
  snap = open(text);
  EXPECT_EQ(snap.counters.at("io.load.calls"), 1u);
  EXPECT_EQ(snap.counters.at("session.build_index.calls"), 1u);
  EXPECT_EQ(snap.histograms.at("io.load.ns").count, 1u);
  EXPECT_EQ(snap.histograms.at("session.build_index.ns").count, 1u);
  std::remove(binary.c_str());
  std::remove(text.c_str());
}

// --- §3.3 low-expectation masking accounting ---------------------------

TEST(MaskedCellsTest, HandBuiltLowExpectationPairIsMasked) {
  // n=100, both items occur 5 times, never together: E[both present] =
  // 100 * 0.05 * 0.05 = 0.25 < 1.0, so exactly that one cell is masked at
  // min_expected_cell = 1.0 (the other three expectations are 4.75, 4.75,
  // and 90.25).
  TransactionDatabase db(2);
  for (int i = 0; i < 5; ++i) db.AddBasket({0});
  for (int i = 0; i < 5; ++i) db.AddBasket({1});
  for (int i = 0; i < 90; ++i) db.AddBasket({});
  BitmapCountProvider provider(db);

  auto table = ContingencyTable::Build(provider, Itemset{0, 1});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ChiSquaredOptions chi2_options;
  chi2_options.min_expected_cell = 1.0;
  ChiSquaredResult chi2 = ComputeChiSquared(*table, chi2_options);
  EXPECT_EQ(chi2.validity.masked_cells, 1u);

  ChiSquaredOptions unmasked;
  unmasked.min_expected_cell = 0.0;
  EXPECT_EQ(ComputeChiSquared(*table, unmasked).validity.masked_cells, 0u);
}

TEST(MaskedCellsTest, MinerLevelStatsCarryMaskedCells) {
  // Same fixture, but counted through the miner: force the pair to be a
  // candidate (support threshold at its observed cell counts) and check
  // the masking shows up in LevelStats.
  TransactionDatabase db(2);
  for (int i = 0; i < 5; ++i) db.AddBasket({0});
  for (int i = 0; i < 5; ++i) db.AddBasket({1});
  for (int i = 0; i < 90; ++i) db.AddBasket({});
  BitmapCountProvider provider(db);

  MinerOptions options;
  options.support.min_count = 1;
  options.support.cell_fraction = 0.5;  // 2 of 4 cells ≥ 1 suffices.
  options.level_one = LevelOnePruning::kNone;
  options.chi2.min_expected_cell = 1.0;
  auto result = MineCorrelations(provider, db.num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->levels.size(), 1u);
  EXPECT_EQ(result->levels[0].chi2_tests, 1u);
  EXPECT_EQ(result->levels[0].masked_cells, 1u);
}

}  // namespace
}  // namespace corrmine
