#ifndef CORRMINE_COMMON_TRACE_H_
#define CORRMINE_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace corrmine {

/// Execution tracing substrate (DESIGN.md §8): per-thread lock-free ring
/// buffers of span begin/end and instant events, exported in the Chrome
/// Trace Event Format so a `--trace-out` file loads directly in Perfetto
/// or chrome://tracing.
///
/// Collection is opt-in at runtime: an inactive tracer costs one relaxed
/// atomic load per call site and reads no clocks, so instrumented hot
/// paths stay cheap in the (default) untraced configuration. Phases that
/// run once per call, level or partition are recorded by Phase
/// (common/phase.h), which feeds this tracer, the metrics registry and the
/// PMU attribution under one name; TraceScope below is the trace-only span
/// for per-task work inside parallel regions.

/// Chrome trace phases the exporter understands. Spans are recorded as
/// separate begin/end events (not complete "X" events) so a scope's
/// children land between its endpoints in the ring.
enum class TraceEventPhase : uint8_t { kBegin, kEnd, kInstant };

/// One recorded event. `name` must be a string with static storage
/// duration (the ring stores the pointer, never a copy); the int64 args
/// use -1 for "absent" and are exported into the Chrome event's "args"
/// object as level / shard / value.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t ts_ns = 0;
  TraceEventPhase phase = TraceEventPhase::kInstant;
  int64_t level = -1;
  int64_t shard = -1;
  int64_t value = -1;
};

/// Fixed-capacity single-writer ring of trace events. The owning thread
/// appends; the exporter reads while the owner is quiescent. Capacity is a
/// power of two; once full, each append overwrites the oldest event (the
/// drop is counted, never undefined behavior — the cursor is the single
/// point of coordination and the slot write happens-before its release).
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two, minimum 8.
  explicit TraceRing(size_t capacity);

  /// Owner thread only. Overwrites the oldest event when full.
  void Append(const TraceEvent& event);

  /// Events still buffered, oldest first, plus how many were overwritten.
  /// Safe to call concurrently with Append only in the sense that it never
  /// crashes; for a consistent snapshot the owner must be quiescent (see
  /// Tracer::WriteChromeJson).
  struct Contents {
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
  };
  Contents Snapshot() const;

  size_t capacity() const { return slots_.size(); }
  uint64_t total_appended() const {
    return cursor_.load(std::memory_order_acquire);
  }

  /// Events overwritten so far (total appended minus capacity, floored at
  /// zero). Same value Snapshot() reports, without copying the events.
  uint64_t Dropped() const {
    const uint64_t end = cursor_.load(std::memory_order_acquire);
    return end > slots_.size() ? end - slots_.size() : 0;
  }

 private:
  std::vector<TraceEvent> slots_;
  size_t mask_;
  /// Total events ever appended; slot for event i is slots_[i & mask_].
  /// Release on write / acquire on read orders the slot payload.
  std::atomic<uint64_t> cursor_{0};
};

/// Process-wide trace collector. Threads register lazily on their first
/// traced event and keep a sticky ring for the session; Start()/Stop()
/// bound a collection session. Start, Stop and WriteChromeJson must not
/// race with active tracing regions (the CLI starts tracing before the
/// mining run and exports after it returns — by then the session's pool
/// workers are idle and every prior append happens-before the fan-in that
/// completed the run).
class Tracer {
 public:
  /// Default ring capacity per thread. Sized so the long-lived run/level
  /// spans survive the flood of per-block counting events on seconds-scale
  /// mines (~3 MB/thread of buffer while a session is active — tracing is
  /// opt-in, so this only costs when --trace-out is set).
  static constexpr size_t kDefaultEventsPerThread = 1u << 16;

  static Tracer& Global();

  /// Begins a collection session: resets the time base, drops buffers from
  /// any previous session, and sizes each thread's ring at
  /// `events_per_thread` (rounded up to a power of two).
  void Start(size_t events_per_thread = kDefaultEventsPerThread);

  /// Ends the session. Buffered events stay readable until the next Start.
  void Stop();

  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Nanoseconds since Start (steady clock).
  uint64_t NowNanos() const;

  /// The calling thread's ring for the current session (registering the
  /// thread on first use). Only meaningful while active.
  TraceRing* ThreadRing();

  /// Async-signal-safe variant for the sampling profiler's SIGPROF
  /// handler: returns the calling thread's ring only if this thread
  /// already registered it for the current session, else nullptr. Never
  /// locks, allocates, or registers — just thread-local and atomic reads.
  TraceRing* ThreadRingIfCached();

  /// Total events overwritten across all rings of the current session.
  /// Surfaces in stats-JSON as trace.dropped_events and as a stderr
  /// warning at export (the cue to re-run with a larger ring).
  uint64_t DroppedEvents() const;

  /// Everything collected, one entry per registered thread in registration
  /// order; tid 0 is the first thread that traced (normally the main
  /// thread).
  struct ThreadTrace {
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
  };
  std::vector<ThreadTrace> Collect() const;

  /// Chrome Trace Event Format document: {"traceEvents":[...],...}. Spans
  /// are re-balanced per thread — an end whose begin was overwritten is
  /// dropped, an unclosed begin gets a synthesized end — so the export
  /// always validates (statsdiff --validate-trace). Timestamps are
  /// microseconds with nanosecond fractions, monotonic per thread.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path` (overwriting). Works — producing an
  /// empty but valid document — even when the tracer never started.
  Status WriteChromeJson(const std::string& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> active_{false};
  /// Bumped by Start; thread-local ring pointers are revalidated against it
  /// so a stale pointer from a previous session is never reused.
  std::atomic<uint64_t> session_{0};
  uint64_t epoch_ns_ = 0;
  size_t events_per_thread_ = kDefaultEventsPerThread;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

/// Trace-only RAII span for per-task work inside parallel regions
/// (pool.task, sharded.count_block, column.count_block), where a registry
/// lookup per task would make every worker wait on the registry mutex.
/// Begin event at construction, end event at destruction, both into the
/// calling thread's ring. When the tracer is inactive the constructor is
/// one relaxed load and no clock is read.
class TraceScope {
 public:
  explicit TraceScope(const char* name, int64_t level = -1,
                      int64_t shard = -1, int64_t value = -1) {
    Tracer& tracer = Tracer::Global();
    if (!tracer.active()) return;
    ring_ = tracer.ThreadRing();
    name_ = name;
    ring_->Append(TraceEvent{name, tracer.NowNanos(),
                             TraceEventPhase::kBegin, level, shard, value});
  }

  ~TraceScope() {
    if (ring_ == nullptr) return;
    ring_->Append(TraceEvent{name_, Tracer::Global().NowNanos(),
                             TraceEventPhase::kEnd, -1, -1, -1});
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRing* ring_ = nullptr;
  const char* name_ = nullptr;
};

/// Zero-duration marker event (Chrome phase "i", thread scope).
inline void TraceInstant(const char* name, int64_t level = -1,
                         int64_t shard = -1, int64_t value = -1) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.active()) return;
  tracer.ThreadRing()->Append(TraceEvent{name, tracer.NowNanos(),
                                         TraceEventPhase::kInstant, level,
                                         shard, value});
}

/// Nanoseconds on the steady clock (arbitrary epoch).
uint64_t SteadyNowNanos();

/// Peak resident set size of this process in bytes (getrusage), 0 where
/// unsupported.
uint64_t PeakRssBytes();

}  // namespace corrmine

#endif  // CORRMINE_COMMON_TRACE_H_
