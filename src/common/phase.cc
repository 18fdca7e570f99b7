#include "common/phase.h"

#include <string>

#include "common/metrics.h"
#include "common/profiler.h"
#include "common/trace.h"

namespace corrmine {

Phase::Phase(MetricsRegistry& registry, const char* name, int64_t level,
             int64_t shard, int64_t value)
    : registry_(&registry), name_(name), start_ns_(SteadyNowNanos()) {
  Tracer& tracer = Tracer::Global();
  if (tracer.active()) {
    ring_ = tracer.ThreadRing();
    ring_->Append(TraceEvent{name, tracer.NowNanos(), TraceEventPhase::kBegin,
                             level, shard, value});
  }
  Profiler& profiler = Profiler::Global();
  if (profiler.pmu_active()) {
    group_ = profiler.ThreadGroup();
    if (group_ != nullptr) entry_ = group_->Read();
  }
}

uint64_t Phase::Stop() {
  if (stopped_) return duration_ns_;
  stopped_ = true;
  duration_ns_ = SteadyNowNanos() - start_ns_;
  if (group_ != nullptr) {
    Profiler::Global().RecordPhase(name_, group_->Read() - entry_);
  }
  if (ring_ != nullptr) {
    ring_->Append(TraceEvent{name_, Tracer::Global().NowNanos(),
                             TraceEventPhase::kEnd, -1, -1, -1});
  }
  const std::string name(name_);
  registry_->GetHistogram(name + ".ns")->Observe(duration_ns_);
  registry_->GetCounter(name + ".calls")->Add();
  return duration_ns_;
}

}  // namespace corrmine
