// The one instrumentation scope (common/phase.h, DESIGN.md §6): a Phase
// records the same number of calls into its "<name>.ns" histogram, its
// "<name>.calls" counter and the Chrome trace; it records no trace event
// and no profile phase while the tracer and the profiler are inactive; and
// across an in-memory mine, an out-of-core mine and a border repair every
// phase name appears in all three places.

#include "common/phase.h"

#include <filesystem>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "core/border_repair.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/json_reader.h"
#include "mining/partition.h"

namespace corrmine {
namespace {

/// {begin, end} event counts per span name in the exported Chrome trace.
std::map<std::string, std::pair<uint64_t, uint64_t>> ChromeSpans() {
  std::map<std::string, std::pair<uint64_t, uint64_t>> spans;
  auto doc = io::ParseJson(Tracer::Global().ToChromeJson());
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return spans;
  for (const io::JsonValue& event : doc->Find("traceEvents")->array) {
    const std::string& ph = event.Find("ph")->string_value;
    if (ph != "B" && ph != "E") continue;
    auto& [begins, ends] = spans[event.Find("name")->string_value];
    ++(ph == "B" ? begins : ends);
  }
  return spans;
}

class PhaseTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Profiler::Global().Stop();
    Tracer::Global().Stop();
  }
};

TEST_F(PhaseTest, OneCountAcrossHistogramCounterAndTrace) {
  MetricsRegistry registry;
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  uint64_t stopped_ns = 0;
  { Phase phase(registry, "phase_test.outer", 2, -1, 7); }
  {
    Phase phase(registry, "phase_test.outer");
    stopped_ns = phase.Stop();
    EXPECT_EQ(phase.Stop(), stopped_ns);  // Later calls record nothing.
  }
  { Phase phase(registry, "phase_test.outer"); }
  tracer.Stop();

  MetricsRegistry::Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.histograms.at("phase_test.outer.ns").count, 3u);
  EXPECT_EQ(snap.counters.at("phase_test.outer.calls"), 3u);
  EXPECT_GE(snap.histograms.at("phase_test.outer.ns").sum, stopped_ns);
  const auto spans = ChromeSpans();
  ASSERT_EQ(spans.count("phase_test.outer"), 1u);
  EXPECT_EQ(spans.at("phase_test.outer"), std::make_pair(3ul, 3ul));
}

TEST_F(PhaseTest, InactiveTracerAndProfilerRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();  // Drops every earlier session's rings.
  tracer.Stop();
  Profiler& profiler = Profiler::Global();
  profiler.Start(ProfilerOptions{});  // Drops earlier phases; no PMU.
  MetricsRegistry registry;
  { Phase phase(registry, "phase_test.quiet"); }
  profiler.Stop();

  for (const Tracer::ThreadTrace& thread : tracer.Collect()) {
    EXPECT_TRUE(thread.events.empty()) << "thread " << thread.tid;
  }
  EXPECT_TRUE(profiler.PhaseSnapshot().empty());
  // The registry side is always on.
  EXPECT_EQ(registry.Snap().counters.at("phase_test.quiet.calls"), 1u);
}

TEST_F(PhaseTest, EveryPhaseOfMineOutOfCoreAndRepairHasHistogramAndSpans) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("corrmine_phase_test_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::create_directories(dir);
  auto quest = [](uint64_t baskets, uint64_t seed) {
    return datagen::GenerateQuestData({.num_transactions = baskets,
                                       .num_items = 80,
                                       .avg_transaction_size = 8.0,
                                       .num_patterns = 20,
                                       .seed = seed});
  };
  auto db = quest(3000, 11);
  auto delta = quest(60, 12);
  ASSERT_TRUE(db.ok() && delta.ok());
  const std::string input = (dir / "quest.bin").string();
  ASSERT_TRUE(io::WriteBinaryTransactionFile(*db, input).ok());

  MinerOptions miner;
  miner.support.min_count = 60;
  miner.support.cell_fraction = 0.25;
  miner.max_level = 3;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  ProfilerOptions profiler_options;
  profiler_options.pmu = true;  // Attributes phases where the PMU opens.
  Profiler::Global().Start(profiler_options);

  SessionOptions session_options;
  session_options.num_threads = 2;
  session_options.num_shards = 2;
  auto session = MiningSession::Open(input, session_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Mine(miner).ok());

  OutOfCoreMinerOptions ooc;
  ooc.miner = miner;
  ooc.miner.num_threads = 2;
  ooc.memory_budget_bytes = uint64_t{64} << 20;
  ooc.partition_budget_bytes = uint64_t{16} << 10;  // Several partitions.
  ooc.spill_dir = (dir / "spill").string();
  OutOfCoreStats ooc_stats;
  ASSERT_TRUE(MineCorrelationsOutOfCore(input, ooc, &ooc_stats).ok());
  EXPECT_GE(ooc_stats.partitions, 2u);

  auto incremental = IncrementalMiner::Create(*db, session_options, miner);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  ASSERT_TRUE(incremental->Append(*delta).ok());
  ASSERT_TRUE(incremental->Repair().ok());

  Profiler::Global().Stop();
  tracer.Stop();
  std::filesystem::remove_all(dir);
  ASSERT_EQ(tracer.DroppedEvents(), 0u) << "trace rings overflowed";

  // Phase names: every histogram "<name>.ns" with a nonzero "<name>.calls".
  const MetricsRegistry::Snapshot snap = registry.Snap();
  std::set<std::string> phases;
  for (const auto& [histogram, data] : snap.histograms) {
    if (histogram.size() <= 3 ||
        histogram.compare(histogram.size() - 3, 3, ".ns") != 0) {
      continue;
    }
    const std::string name = histogram.substr(0, histogram.size() - 3);
    auto calls = snap.counters.find(name + ".calls");
    if (calls == snap.counters.end() || calls->second == 0) continue;
    phases.insert(name);
    EXPECT_EQ(data.count, calls->second) << name;
  }
  for (const char* expected :
       {"io.load", "session.build_index", "session.mine", "session.append",
        "miner.mine", "miner.level", "miner.count_batch", "miner.evaluate",
        "miner.generate", "outofcore.spill", "outofcore.spill_partition",
        "outofcore.sweep", "outofcore.count_partition", "repair.apply_append",
        "repair.mine"}) {
    EXPECT_EQ(phases.count(expected), 1u) << expected;
  }

  // Each phase's spans match its call count, and every span outside the
  // trace-only per-task scopes belongs to a phase.
  const std::set<std::string> trace_only = {"pool.task", "sharded.count_block",
                                            "column.count_block"};
  const auto spans = ChromeSpans();
  for (const std::string& name : phases) {
    const uint64_t calls = snap.counters.at(name + ".calls");
    ASSERT_EQ(spans.count(name), 1u) << name << " has no trace spans";
    EXPECT_EQ(spans.at(name), std::make_pair(calls, calls)) << name;
  }
  for (const auto& [name, counts] : spans) {
    if (trace_only.count(name) != 0) continue;
    EXPECT_EQ(phases.count(name), 1u) << name << " has no histogram";
    EXPECT_NE(name.rfind("partition.", 0), 0u) << name;
  }
  for (const auto& [name, profile] : Profiler::Global().PhaseSnapshot()) {
    EXPECT_EQ(phases.count(name), 1u) << name << " has no histogram";
  }
}

}  // namespace
}  // namespace corrmine
