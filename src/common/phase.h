#ifndef CORRMINE_COMMON_PHASE_H_
#define CORRMINE_COMMON_PHASE_H_

#include <cstdint>

#include "common/pmu.h"

namespace corrmine {

class MetricsRegistry;
class TraceRing;

/// The one instrumentation scope for work that runs once per call, per
/// level or per partition (DESIGN.md §6). A Phase named `name` feeds, under
/// that one name:
///
///  * histogram "<name>.ns" and counter "<name>.calls" of `registry`,
///  * a begin/end span in the calling thread's trace ring when the tracer
///    is active (`level`, `shard` and `value` become the span's args; -1
///    means absent),
///  * the calling thread's PMU counter delta when the profiler's PMU
///    collector is active.
///
/// `name` must have static storage duration (the trace ring and the
/// profiler keep the pointer). Per-task work inside parallel regions uses
/// the trace-only TraceScope (common/trace.h) instead: a Phase takes the
/// registry mutex when it stops.
class Phase {
 public:
  Phase(MetricsRegistry& registry, const char* name, int64_t level = -1,
        int64_t shard = -1, int64_t value = -1);
  ~Phase() { Stop(); }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Ends the phase now instead of at scope exit and returns its duration
  /// in nanoseconds, the value observed into "<name>.ns". Later calls
  /// record nothing and return the same duration.
  uint64_t Stop();

 private:
  MetricsRegistry* registry_;
  const char* name_;
  uint64_t start_ns_;
  uint64_t duration_ns_ = 0;
  bool stopped_ = false;
  TraceRing* ring_ = nullptr;
  PmuGroup* group_ = nullptr;
  PmuCounts entry_;
};

}  // namespace corrmine

#endif  // CORRMINE_COMMON_PHASE_H_
