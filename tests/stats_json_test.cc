#include "io/stats_json.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/chi_squared_miner.h"
#include "datagen/quest_generator.h"
#include "itemset/count_provider.h"
#include "io/json_reader.h"

namespace corrmine {
namespace {

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

TEST(StatsJsonTest, DeterministicSectionSchema) {
  MiningResult result;
  LevelStats level;
  level.level = 2;
  level.possible_itemsets = 45;
  level.candidates = 10;
  level.discards = 2;
  level.chi2_tests = 8;
  level.masked_cells = 3;
  level.significant = 5;
  level.not_significant = 3;
  result.levels.push_back(level);

  std::string json = RenderDeterministicStats(result);
  EXPECT_EQ(json,
            "{\"schema\":\"corrmine-stats-v1\",\"rules\":0,\"levels\":["
            "{\"level\":2,\"possible\":45,\"cand\":10,\"discards\":2,"
            "\"chi2_tests\":8,\"masked_cells\":3,\"sig\":5,\"notsig\":3}"
            "]}");
  // Single line (grep-comparable).
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(StatsJsonTest, FullDocumentHasBothSections) {
  MiningResult result;
  MetricsRegistry registry;
  registry.GetCounter("miner.runs")->Add();
  std::string json = RenderStatsJson(result, registry);
  EXPECT_NE(json.find("\"schema\": \"corrmine-stats-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"deterministic\": {"), std::string::npos);
  EXPECT_NE(json.find("\"runtime\": {"), std::string::npos);
  // The deterministic object must sit on one line of the document, so
  // `grep '"deterministic"'` pulls exactly the comparable section.
  std::istringstream lines(json);
  std::string line;
  int deterministic_lines = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"deterministic\"") != std::string::npos) {
      ++deterministic_lines;
      EXPECT_NE(line.find("corrmine-stats-v1"), std::string::npos);
    }
  }
  EXPECT_EQ(deterministic_lines, 1);
}

TEST(StatsJsonTest, FullDocumentCarriesProfileAndTraceSections) {
  MiningResult result;
  MetricsRegistry registry;
  std::string json = RenderStatsJson(result, registry);
  // Present in every configuration — profiling off, PMU denied — because
  // statsdiff --validate-profile checks structure unconditionally.
  EXPECT_NE(json.find("\"profile\": {\"pmu\":{\"available\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"trace\": {\"dropped_events\": "), std::string::npos)
      << json;
  auto doc = io::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const io::JsonValue* profile = doc->Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_NE(profile->Find("pmu"), nullptr);
  EXPECT_NE(profile->Find("phases"), nullptr);
  EXPECT_NE(profile->Find("sampling"), nullptr);
  // Never inside the deterministic section (the statsdiff hygiene check).
  const io::JsonValue* det = doc->Find("deterministic");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->Find("profile"), nullptr);
  EXPECT_EQ(det->Find("kernel"), nullptr);
}

// Satellite regression: drops in the trace rings must surface in the
// stats document, not just inside the Chrome export.
TEST(StatsJsonTest, TraceRingOverflowIsReportedInStatsJson) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(/*events_per_thread=*/8);
  for (int i = 0; i < 200; ++i) TraceInstant("overflow.spam", -1, -1, i);
  tracer.Stop();

  MiningResult result;
  MetricsRegistry registry;
  std::string json = RenderStatsJson(result, registry);
  auto doc = io::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const io::JsonValue* trace = doc->Find("trace");
  ASSERT_NE(trace, nullptr);
  const io::JsonValue* dropped = trace->Find("dropped_events");
  ASSERT_NE(dropped, nullptr);
  ASSERT_TRUE(dropped->is_number());
  EXPECT_EQ(static_cast<uint64_t>(dropped->number_value), 200u - 8u);
  // Reset so later suites in this process start drop-free.
  tracer.Start();
  tracer.Stop();
}

TEST(StatsJsonTest, WriteStatsJsonRoundTrips) {
  std::string path = ::testing::TempDir() + "/stats_json_test_out.json";
  Status status = WriteStatsJson(path, "{\"x\":1}");
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{\"x\":1}\n");
  std::remove(path.c_str());
}

TEST(StatsJsonTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(
      WriteStatsJson("/nonexistent-dir-xyz/stats.json", "{}").ok());
}

// The acceptance bar for the whole observability layer: the deterministic
// section is byte-identical across thread counts on the same workload.
TEST(StatsJsonTest, DeterministicSectionThreadCountInvariant) {
  auto db = datagen::GenerateQuestData(SmallQuest());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BitmapCountProvider provider(*db);

  std::string baseline;
  for (int threads : {1, 8}) {
    MinerOptions options = SmallMinerOptions();
    options.num_threads = threads;
    auto result = MineCorrelations(provider, db->num_items(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string json = RenderDeterministicStats(*result);
    if (threads == 1) {
      baseline = json;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(json, baseline)
          << "deterministic stats diverged at " << threads << " threads";
    }
  }
}

// The miner's memory gauges (candidates, NOTSIG tables, SIG list) land in
// the runtime section, never in the deterministic one.
TEST(StatsJsonTest, MinerMemoryGaugesReportEveryStructure) {
  auto db = datagen::GenerateQuestData(SmallQuest());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BitmapCountProvider provider(*db);
  MinerOptions options = SmallMinerOptions();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  auto result = MineCorrelations(provider, db->num_items(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->levels.size(), 3u);
  EXPECT_EQ(result->levels[2].level, 4);

  auto doc = io::ParseJson(RenderStatsJson(*result, registry));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const io::JsonValue* runtime = doc->Find("runtime");
  ASSERT_NE(runtime, nullptr);
  const io::JsonValue* gauges = runtime->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* name : {"mem.miner_cand_bytes", "mem.miner_notsig_bytes",
                           "mem.miner_sig_bytes"}) {
    const io::JsonValue* gauge = gauges->Find(name);
    ASSERT_NE(gauge, nullptr) << name;
    EXPECT_GT(gauge->number_value, 0.0) << name;
  }
  EXPECT_EQ(RenderDeterministicStats(*result).find("mem."), std::string::npos);
}

}  // namespace
}  // namespace corrmine
