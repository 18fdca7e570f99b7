// The execution-tracing substrate (common/trace.h): ring-buffer semantics
// including overwrite-oldest overflow, the runtime start/stop gate, and the
// Chrome Trace Event Format exporter's structural guarantees — balanced
// begin/end per thread, per-thread monotonic timestamps, required fields —
// checked by parsing the emitted JSON with the repository's own reader.

#include "common/trace.h"

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "io/json_reader.h"

namespace corrmine {
namespace {

TraceEvent MakeEvent(const char* name, uint64_t ts, TraceEventPhase phase) {
  TraceEvent event;
  event.name = name;
  event.ts_ns = ts;
  event.phase = phase;
  return event;
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(TraceRing(0).capacity(), 8u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, KeepsEventsInAppendOrder) {
  TraceRing ring(16);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Append(MakeEvent("e", i, TraceEventPhase::kInstant));
  }
  TraceRing::Contents contents = ring.Snapshot();
  EXPECT_EQ(contents.dropped, 0u);
  ASSERT_EQ(contents.events.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(contents.events[i].ts_ns, i);
  }
  EXPECT_EQ(ring.total_appended(), 10u);
}

TEST(TraceRingTest, OverflowDropsOldestAndCountsDrops) {
  TraceRing ring(8);
  const uint64_t total = 8 * 5 + 3;  // Wrap several times, land mid-ring.
  for (uint64_t i = 0; i < total; ++i) {
    ring.Append(MakeEvent("e", i, TraceEventPhase::kInstant));
  }
  TraceRing::Contents contents = ring.Snapshot();
  EXPECT_EQ(contents.dropped, total - 8);
  ASSERT_EQ(contents.events.size(), 8u);
  // The survivors are exactly the most recent 8, still oldest-first.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(contents.events[i].ts_ns, total - 8 + i);
  }
  EXPECT_EQ(ring.total_appended(), total);
}

class TracerTest : public ::testing::Test {
 protected:
  // Every test leaves the global tracer stopped so later tests (and other
  // suites in this process) start from the inactive state.
  void TearDown() override { Tracer::Global().Stop(); }
};

TEST_F(TracerTest, InactiveByDefaultAndScopesAreNoOps) {
  Tracer& tracer = Tracer::Global();
  EXPECT_FALSE(tracer.active());
  {
    TraceScope scope("never.recorded");
    TraceInstant("also.never");
  }
  // Without Start there is no session to collect.
  EXPECT_TRUE(tracer.Collect().empty());
}

TEST_F(TracerTest, CollectSeesSpansAndInstants) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  ASSERT_TRUE(tracer.active());
  {
    TraceScope outer("outer", 2, -1, 42);
    TraceInstant("marker", 2, 1, 7);
    TraceScope inner("inner");
  }
  tracer.Stop();
  EXPECT_FALSE(tracer.active());

  std::vector<Tracer::ThreadTrace> threads = tracer.Collect();
  ASSERT_EQ(threads.size(), 1u);
  const Tracer::ThreadTrace& main_thread = threads[0];
  EXPECT_EQ(main_thread.dropped, 0u);
  ASSERT_EQ(main_thread.events.size(), 5u);
  // LIFO scope nesting: outer-B, marker, inner-B, inner-E, outer-E.
  EXPECT_STREQ(main_thread.events[0].name, "outer");
  EXPECT_EQ(main_thread.events[0].phase, TraceEventPhase::kBegin);
  EXPECT_EQ(main_thread.events[0].level, 2);
  EXPECT_EQ(main_thread.events[0].value, 42);
  EXPECT_STREQ(main_thread.events[1].name, "marker");
  EXPECT_EQ(main_thread.events[1].phase, TraceEventPhase::kInstant);
  EXPECT_STREQ(main_thread.events[2].name, "inner");
  EXPECT_STREQ(main_thread.events[3].name, "inner");
  EXPECT_EQ(main_thread.events[3].phase, TraceEventPhase::kEnd);
  EXPECT_STREQ(main_thread.events[4].name, "outer");
  EXPECT_EQ(main_thread.events[4].phase, TraceEventPhase::kEnd);
  // Timestamps never decrease within the thread.
  for (size_t i = 1; i < main_thread.events.size(); ++i) {
    EXPECT_GE(main_thread.events[i].ts_ns, main_thread.events[i - 1].ts_ns);
  }
}

TEST_F(TracerTest, StartResetsThePreviousSession) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { TraceScope scope("first.session"); }
  tracer.Stop();
  tracer.Start();
  { TraceScope scope("second.session"); }
  tracer.Stop();
  std::vector<Tracer::ThreadTrace> threads = tracer.Collect();
  ASSERT_EQ(threads.size(), 1u);
  for (const TraceEvent& event : threads[0].events) {
    EXPECT_STREQ(event.name, "second.session");
  }
}

/// Structural validation of an exported document, mirroring what
/// `statsdiff --validate-trace` enforces: envelope shape, required fields,
/// balanced B/E per tid, non-decreasing per-tid timestamps.
void ValidateChromeTrace(const std::string& json, size_t* span_events_out) {
  auto doc_or = io::ParseJson(json);
  ASSERT_TRUE(doc_or.ok()) << doc_or.status().ToString();
  const io::JsonValue& doc = *doc_or;
  ASSERT_TRUE(doc.is_object());
  const io::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  struct Track {
    std::string tid;
    std::vector<std::string> open;
    double last_ts = -1;
  };
  std::vector<Track> tracks;
  size_t span_events = 0;
  for (const io::JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const io::JsonValue* name = event.Find("name");
    const io::JsonValue* ph = event.Find("ph");
    const io::JsonValue* ts = event.Find("ts");
    const io::JsonValue* tid = event.Find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(name->is_string());
    EXPECT_FALSE(name->string_value.empty());
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->is_number());
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_TRUE(tid->is_number());

    Track* track = nullptr;
    for (Track& t : tracks) {
      if (t.tid == tid->literal) track = &t;
    }
    if (track == nullptr) {
      tracks.push_back(Track{tid->literal, {}, -1});
      track = &tracks.back();
    }
    EXPECT_GE(ts->number_value, track->last_ts)
        << "timestamp went backwards on tid " << tid->literal;
    track->last_ts = ts->number_value;

    const std::string& phase = ph->string_value;
    if (phase == "B") {
      ++span_events;
      track->open.push_back(name->string_value);
    } else if (phase == "E") {
      ++span_events;
      ASSERT_FALSE(track->open.empty())
          << "unmatched E \"" << name->string_value << "\"";
      EXPECT_EQ(track->open.back(), name->string_value);
      track->open.pop_back();
    } else if (phase == "i") {
      const io::JsonValue* scope = event.Find("s");
      ASSERT_NE(scope, nullptr);
      EXPECT_TRUE(scope->is_string());
    }
  }
  for (const Track& track : tracks) {
    EXPECT_TRUE(track.open.empty())
        << "unclosed span \"" << track.open.back() << "\" on tid "
        << track.tid;
  }
  if (span_events_out != nullptr) *span_events_out = span_events;
}

TEST_F(TracerTest, ChromeJsonValidatesAndIsBalanced) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  {
    TraceScope run("run", -1, -1, 3);
    for (int level = 2; level <= 4; ++level) {
      TraceScope level_scope("level", level);
      TraceInstant("candidates", level, -1, 100 * level);
    }
  }
  tracer.Stop();
  size_t span_events = 0;
  ValidateChromeTrace(tracer.ToChromeJson(), &span_events);
  EXPECT_EQ(span_events, 8u);  // run + 3 levels, begin and end each.
}

TEST_F(TracerTest, MultithreadedExportKeepsThreadsApartAndBalanced) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        TraceScope scope("worker.task", -1, t, i);
        TraceInstant("worker.tick", -1, t, i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  { TraceScope main_scope("main.join"); }
  tracer.Stop();

  // One track per worker plus the main thread, each fully buffered.
  std::vector<Tracer::ThreadTrace> threads = tracer.Collect();
  EXPECT_EQ(threads.size(), static_cast<size_t>(kThreads) + 1);
  for (const Tracer::ThreadTrace& thread : threads) {
    EXPECT_EQ(thread.dropped, 0u);
  }
  ValidateChromeTrace(tracer.ToChromeJson(), nullptr);
}

TEST_F(TracerTest, RingOverflowStillExportsAValidTrace) {
  Tracer& tracer = Tracer::Global();
  // Tiny rings so the span stream wraps many times; ends whose begins were
  // overwritten must be re-balanced away, and still-open begins closed.
  tracer.Start(/*events_per_thread=*/16);
  {
    TraceScope outer("outer");
    for (int i = 0; i < 500; ++i) {
      TraceScope inner("inner", -1, -1, i);
      TraceInstant("tick", -1, -1, i);
    }
  }
  tracer.Stop();

  std::vector<Tracer::ThreadTrace> threads = tracer.Collect();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_GT(threads[0].dropped, 0u);
  EXPECT_LE(threads[0].events.size(), 16u);
  // The drop total must be visible in the exported document too.
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("dropped_events"), std::string::npos);
  ValidateChromeTrace(tracer.ToChromeJson(), nullptr);
}

TEST_F(TracerTest, WriteChromeJsonProducesALoadableFile) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  { TraceScope scope("file.span"); }
  tracer.Stop();
  const std::string path =
      ::testing::TempDir() + "/corrmine_trace_test.json";
  Status status = tracer.WriteChromeJson(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  ValidateChromeTrace(content.str(), nullptr);
}

TEST(TraceRingTest, DroppedAccessorMatchesSnapshot) {
  TraceRing ring(8);
  EXPECT_EQ(ring.Dropped(), 0u);
  for (uint64_t i = 0; i < 8; ++i) {
    ring.Append(MakeEvent("e", i, TraceEventPhase::kInstant));
  }
  EXPECT_EQ(ring.Dropped(), 0u);  // Exactly full: nothing overwritten yet.
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Append(MakeEvent("e", 8 + i, TraceEventPhase::kInstant));
  }
  EXPECT_EQ(ring.Dropped(), 5u);
  EXPECT_EQ(ring.Snapshot().dropped, 5u);
}

TEST_F(TracerTest, DroppedEventsSumsAcrossRingsAndResetsOnStart) {
  Tracer& tracer = Tracer::Global();
  tracer.Start(/*events_per_thread=*/8);
  for (int i = 0; i < 100; ++i) TraceInstant("spam", -1, -1, i);
  tracer.Stop();
  EXPECT_EQ(tracer.DroppedEvents(), 100u - 8u);
  // A fresh session drops the old rings — and their drop counts.
  tracer.Start();
  { TraceScope scope("calm"); }
  tracer.Stop();
  EXPECT_EQ(tracer.DroppedEvents(), 0u);
}

TEST_F(TracerTest, ThreadRingIfCachedRequiresRegistrationAndSession) {
  Tracer& tracer = Tracer::Global();
  // Inactive tracer: never returns a ring.
  EXPECT_EQ(tracer.ThreadRingIfCached(), nullptr);
  tracer.Start();
  // Active but this thread has not traced yet this session: still nullptr
  // (the async-signal-safe path must never register).
  EXPECT_EQ(tracer.ThreadRingIfCached(), nullptr);
  TraceRing* ring = tracer.ThreadRing();
  EXPECT_EQ(tracer.ThreadRingIfCached(), ring);
  tracer.Stop();
  EXPECT_EQ(tracer.ThreadRingIfCached(), nullptr);
  // A new session invalidates the old cached ring until re-registration.
  tracer.Start();
  EXPECT_EQ(tracer.ThreadRingIfCached(), nullptr);
  EXPECT_EQ(tracer.ThreadRingIfCached(), tracer.ThreadRingIfCached());
  tracer.Stop();
}

TEST(PeakRssTest, ReportsAPlausiblyPositiveValue) {
#if defined(__unix__) || defined(__APPLE__)
  // Any live process has resident pages; exact value is machine state.
  EXPECT_GT(PeakRssBytes(), 0u);
#else
  SUCCEED();
#endif
}

}  // namespace
}  // namespace corrmine
