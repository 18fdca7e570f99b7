// The profiling subsystem (common/profiler.h + common/pmu.h, DESIGN.md
// §13): PmuCounts arithmetic, the one-shot availability probe and its
// degradation contract, phase attribution through Phase/RecordPhase,
// the "profile" JSON section's structure, and the SIGPROF sampling
// profiler's capture + collapsed-stack export. Every test passes whether
// or not perf_event_open is available — graceful degradation IS the
// contract — and the whole file runs under TSan in verify.sh.

#include "common/profiler.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/phase.h"
#include "common/pmu.h"
#include "common/trace.h"
#include "io/json_reader.h"

namespace corrmine {

/// The sampling test's CPU burner. Not inlined, so the interrupted PCs
/// fall inside it, and with external linkage, so dladdr names it from the
/// dynamic symbol table.
__attribute__((noinline)) uint64_t ProfilerTestSpin(uint64_t iterations) {
  uint64_t sink = 0;
  for (uint64_t i = 0; i < iterations; ++i) {
    sink += i * 7;
    asm volatile("" : "+r"(sink));
  }
  return sink;
}

namespace {

/// ProfilerTestSpin's twin with internal linkage: absent from the dynamic
/// symbol table, so only the executable's .symtab can name it.
__attribute__((noinline)) uint64_t StaticProfilerTestSpin(uint64_t iterations) {
  uint64_t sink = 0;
  for (uint64_t i = 0; i < iterations; ++i) {
    sink += i * 11;
    asm volatile("" : "+r"(sink));
  }
  return sink;
}

/// Keeps a burn-loop accumulator observable so the loop is not optimized
/// away (the loops exist to accumulate CPU time for SIGPROF / the PMU).
inline void KeepAlive(uint64_t& value) {
  asm volatile("" : "+r"(value) : : "memory");
}

TEST(PmuCountsTest, DifferenceSaturatesPerField) {
  PmuCounts a;
  a.cycles = 100;
  a.instructions = 50;
  a.llc_loads = 10;
  a.valid = true;
  PmuCounts b;
  b.cycles = 40;
  b.instructions = 80;  // Larger than a's: field was absent on one side.
  b.valid = true;
  PmuCounts d = a - b;
  EXPECT_EQ(d.cycles, 60u);
  EXPECT_EQ(d.instructions, 0u);  // Saturates, never wraps.
  EXPECT_EQ(d.llc_loads, 10u);
  EXPECT_TRUE(d.valid);
  PmuCounts invalid;
  EXPECT_FALSE((a - invalid).valid);
}

TEST(PmuCountsTest, AccumulateSums) {
  PmuCounts total;
  PmuCounts delta;
  delta.cycles = 5;
  delta.task_clock_ns = 7;
  delta.valid = true;
  total += delta;
  total += delta;
  EXPECT_EQ(total.cycles, 10u);
  EXPECT_EQ(total.task_clock_ns, 14u);
  EXPECT_TRUE(total.valid);
}

TEST(PmuProbeTest, VerdictIsCachedAndExplained) {
  const PmuProbe& first = ProbePmu();
  const PmuProbe& second = ProbePmu();
  EXPECT_EQ(&first, &second);  // One probe per process.
  if (!first.available) {
    // The degradation contract: denial always comes with a reason.
    EXPECT_FALSE(first.reason.empty());
  }
}

TEST(PmuGroupTest, TracksProbeVerdictAndReadsConsistently) {
  PmuGroup group;
  if (!ProbePmu().available) {
    // Where perf_event_open is denied the group must be inert: invalid,
    // zero reads, no crashes — callers never need to check first.
    EXPECT_FALSE(group.valid());
    PmuCounts counts = group.Read();
    EXPECT_FALSE(counts.valid);
    EXPECT_EQ(counts.cycles, 0u);
    return;
  }
  ASSERT_TRUE(group.valid());
  PmuCounts before = group.Read();
  ASSERT_TRUE(before.valid);
  // Burn some cycles so the deltas are visibly positive.
  uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<uint64_t>(i) * 31;
  KeepAlive(sink);
  PmuCounts after = group.Read();
  ASSERT_TRUE(after.valid);
  EXPECT_GE(after.cycles, before.cycles);
  EXPECT_GT(after.cycles - before.cycles, 0u);
  EXPECT_GT(after.instructions - before.instructions, 0u);
}

class ProfilerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Profiler::Global().Stop();
    Tracer::Global().Stop();
  }
};

TEST_F(ProfilerTest, RecordPhaseAggregatesScopesAndCounts) {
  Profiler& profiler = Profiler::Global();
  profiler.Start(ProfilerOptions{});  // Resets phases; no collectors.
  PmuCounts delta;
  delta.cycles = 1000;
  delta.instructions = 2500;
  delta.llc_loads = 100;
  delta.llc_misses = 25;
  delta.valid = true;
  profiler.RecordPhase("test.phase", delta);
  profiler.RecordPhase("test.phase", delta);
  profiler.Stop();
  auto phases = profiler.PhaseSnapshot();
  ASSERT_EQ(phases.count("test.phase"), 1u);
  EXPECT_EQ(phases["test.phase"].scopes, 2u);
  EXPECT_EQ(phases["test.phase"].counts.cycles, 2000u);
  EXPECT_EQ(phases["test.phase"].counts.instructions, 5000u);

  // The JSON rendering derives the rates from the aggregates.
  auto doc = io::ParseJson(profiler.RenderProfileJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const io::JsonValue* phase = doc->Find("phases");
  ASSERT_NE(phase, nullptr);
  const io::JsonValue* test_phase = phase->Find("test.phase");
  ASSERT_NE(test_phase, nullptr);
  EXPECT_EQ(test_phase->Find("ipc")->number_value, 2.5);
  EXPECT_EQ(test_phase->Find("llc_miss_rate")->number_value, 0.25);
  EXPECT_EQ(test_phase->Find("scopes")->number_value, 2.0);
}

TEST_F(ProfilerTest, PhaseAttributesPmuWhenAvailable) {
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.pmu = true;
  profiler.Start(options);
  MetricsRegistry registry;
  {
    Phase phase(registry, "attributed.phase");
    uint64_t sink = 0;
    for (int i = 0; i < 1000000; ++i) sink += static_cast<uint64_t>(i);
    KeepAlive(sink);
  }
  profiler.Stop();
  auto phases = profiler.PhaseSnapshot();
  if (!ProbePmu().available) {
    // Degraded: the scope must cost nothing and record nothing.
    EXPECT_TRUE(phases.empty());
    return;
  }
  ASSERT_EQ(phases.count("attributed.phase"), 1u);
  EXPECT_EQ(phases["attributed.phase"].scopes, 1u);
  EXPECT_GT(phases["attributed.phase"].counts.cycles, 0u);
}

TEST_F(ProfilerTest, ProfileJsonIsStructurallyCompleteInEveryMode) {
  // Never-started profiler: the section must still be complete — the
  // stats-JSON writer emits it unconditionally.
  auto doc = io::ParseJson(Profiler::Global().RenderProfileJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const io::JsonValue* pmu = doc->Find("pmu");
  ASSERT_NE(pmu, nullptr);
  const io::JsonValue* available = pmu->Find("available");
  ASSERT_NE(available, nullptr);
  EXPECT_EQ(available->type, io::JsonValue::Type::kBool);
  const io::JsonValue* reason = pmu->Find("reason");
  ASSERT_NE(reason, nullptr);
  if (!available->bool_value) {
    EXPECT_FALSE(reason->string_value.empty());
  }
  ASSERT_NE(doc->Find("phases"), nullptr);
  const io::JsonValue* sampling = doc->Find("sampling");
  ASSERT_NE(sampling, nullptr);
  for (const char* key : {"samples", "dropped", "unresolved"}) {
    const io::JsonValue* v = sampling->Find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_number()) << key;
    EXPECT_GE(v->number_value, 0) << key;
  }
}

/// Burns CPU until the sampling profiler has captured at least
/// `min_samples` or ~4s of wall clock pass. ITIMER_PROF ticks on CPU
/// time with kernel-tick granularity, so a sub-millisecond loop would
/// never be sampled — the busy loop below guarantees enough CPU time.
void BurnUntilSampled(uint64_t min_samples) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(4);
  uint64_t sink = 0;
  while (Profiler::Global().samples_recorded() < min_samples &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 200000; ++i) sink += static_cast<uint64_t>(i) * 7;
    KeepAlive(sink);
  }
}

TEST_F(ProfilerTest, SamplingCapturesStacksAndExportsCollapsedFormat) {
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.sampling = true;
  options.sample_interval_usec = 500;
  profiler.Start(options);
  ASSERT_TRUE(profiler.sampling_active());
  // Nearly all the CPU time goes to ProfilerTestSpin; the loop around it
  // only polls the sample count and the deadline. The volatile length
  // keeps the compiler from cloning the spin into a constant-propagated
  // local copy that dladdr cannot name.
  static volatile uint64_t spin_iterations = 2000000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(4);
  uint64_t sink = 0;
  while (profiler.samples_recorded() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    sink += ProfilerTestSpin(spin_iterations);
  }
  KeepAlive(sink);
  profiler.Stop();
  EXPECT_FALSE(profiler.sampling_active());
  const uint64_t samples = profiler.samples_recorded();
  ASSERT_GT(samples, 0u) << "no SIGPROF samples after seconds of CPU burn";

  const std::string collapsed = profiler.RenderCollapsedStacks();
  ASSERT_FALSE(collapsed.empty());
  // Every line is "frames... count" with a positive trailing integer and
  // no empty frames — the flamegraph.pl input contract.
  std::istringstream lines(collapsed);
  std::string line;
  uint64_t total = 0;
  uint64_t spin_leaf = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string count = line.substr(space + 1);
    for (char c : count) ASSERT_TRUE(c >= '0' && c <= '9') << line;
    total += std::strtoull(count.c_str(), nullptr, 10);
    const std::string frames = line.substr(0, space);
    EXPECT_NE(frames.front(), ';') << line;
    EXPECT_NE(frames.back(), ';') << line;
    EXPECT_EQ(frames.find(";;"), std::string::npos) << line;
    EXPECT_EQ(frames.find(' '), std::string::npos) << line;
    // The leaf (last frame) is the interrupted function itself, not the
    // signal handler or the signal trampoline.
    const std::string leaf = frames.substr(frames.rfind(';') + 1);
    if (leaf.find("ProfilerTestSpin") != std::string::npos) {
      spin_leaf += std::strtoull(count.c_str(), nullptr, 10);
    }
  }
  EXPECT_EQ(total, samples);  // Every captured sample folds into a stack.
  EXPECT_GE(spin_leaf * 10, samples * 8)
      << spin_leaf << " of " << samples
      << " samples have ProfilerTestSpin as their leaf:\n"
      << collapsed;

  const std::string path =
      ::testing::TempDir() + "/corrmine_profiler_test.folded";
  Status status = profiler.WriteCollapsedStacks(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::remove(path.c_str());
}

TEST_F(ProfilerTest, SamplingNamesStaticFunctions) {
  // An anonymous-namespace function is invisible to dladdr; the export
  // must still name it from the executable's symbol table rather than
  // print a hex address.
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.sampling = true;
  options.sample_interval_usec = 500;
  profiler.Start(options);
  ASSERT_TRUE(profiler.sampling_active());
  static volatile uint64_t spin_iterations = 2000000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(4);
  uint64_t sink = 0;
  while (profiler.samples_recorded() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    sink += StaticProfilerTestSpin(spin_iterations);
  }
  KeepAlive(sink);
  profiler.Stop();
  const uint64_t samples = profiler.samples_recorded();
  ASSERT_GT(samples, 0u) << "no SIGPROF samples after seconds of CPU burn";

  std::istringstream lines(profiler.RenderCollapsedStacks());
  std::string line;
  uint64_t spin_leaf = 0;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string frames = line.substr(0, space);
    const std::string leaf = frames.substr(frames.rfind(';') + 1);
    if (leaf.find("StaticProfilerTestSpin") != std::string::npos) {
      spin_leaf += std::strtoull(line.c_str() + space + 1, nullptr, 10);
    }
  }
  EXPECT_GE(spin_leaf * 10, samples * 8)
      << spin_leaf << " of " << samples
      << " samples have StaticProfilerTestSpin as their leaf:\n"
      << profiler.RenderCollapsedStacks();
}

TEST_F(ProfilerTest, SamplesFoldIntoAnActiveTraceAsInstantEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  // Register this thread's ring BEFORE sampling starts: the handler only
  // uses the async-signal-safe cached lookup and never registers.
  { TraceScope warmup("profiler.test.warmup"); }
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.sampling = true;
  options.sample_interval_usec = 500;
  profiler.Start(options);
  BurnUntilSampled(3);
  profiler.Stop();
  tracer.Stop();
  if (profiler.samples_recorded() == 0) {
    GTEST_SKIP() << "no samples landed (loaded machine) — folding untested";
  }
  std::vector<Tracer::ThreadTrace> threads = tracer.Collect();
  uint64_t folded = 0;
  for (const auto& thread : threads) {
    for (const TraceEvent& event : thread.events) {
      if (std::string(event.name) == "profiler.sample") ++folded;
    }
  }
  EXPECT_GT(folded, 0u)
      << "samples were captured but none folded into the trace";
  // The export must still be a valid Chrome document with the instants in.
  EXPECT_NE(tracer.ToChromeJson().find("profiler.sample"),
            std::string::npos);
}

TEST_F(ProfilerTest, StartResetsSampleAndPhaseStateBetweenSessions) {
  Profiler& profiler = Profiler::Global();
  ProfilerOptions options;
  options.sampling = true;
  options.sample_interval_usec = 500;
  profiler.Start(options);
  BurnUntilSampled(1);
  profiler.Stop();

  profiler.Start(ProfilerOptions{});  // New session: counters reset.
  EXPECT_EQ(profiler.samples_recorded(), 0u);
  EXPECT_EQ(profiler.samples_dropped(), 0u);
  EXPECT_TRUE(profiler.PhaseSnapshot().empty());
  profiler.Stop();
}

}  // namespace
}  // namespace corrmine
