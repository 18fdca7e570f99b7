#ifndef CORRMINE_COMMON_PROFILER_H_
#define CORRMINE_COMMON_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/pmu.h"
#include "common/status.h"

namespace corrmine {

/// Phase-attributed profiling subsystem (DESIGN.md §13), two coordinated
/// collectors behind one Start/Stop session:
///
///  * PMU attribution — each instrumented phase (Phase, common/phase.h)
///    reads a per-thread perf_event group at entry and exit and charges the
///    delta
///    (cycles, instructions, LLC loads/misses, branch misses, task-clock)
///    to the phase name, so stats-JSON's "profile" section answers *why* a
///    phase is slow (IPC, miss rates) rather than just how long it took.
///
///  * Sampling profiler — an ITIMER_PROF/SIGPROF-driven, async-signal-safe
///    frame-pointer backtrace capture into one shared lock-free ring,
///    exported as flamegraph.pl-compatible collapsed stacks
///    (--profile-out) and folded into the Chrome trace as instant events.
///
/// Both collectors are pure observers: the deterministic stats section is
/// byte-identical with profiling on or off (pinned by statsdiff in
/// verify.sh), and PMU denial (seccomp/paranoid containers) degrades to
/// `pmu.available:false` + reason with every caller unperturbed.

struct ProfilerOptions {
  /// Open per-thread perf_event groups and attribute counters to phases.
  /// Silently degrades when perf_event_open is unavailable (see ProbePmu).
  bool pmu = false;
  /// Install the SIGPROF sampling profiler.
  bool sampling = false;
  /// CPU-time between samples. Prime by default so sampling does not
  /// phase-lock with periodic work.
  uint64_t sample_interval_usec = 997;
};

/// Aggregated PMU attribution for one phase name.
struct PhaseProfile {
  uint64_t scopes = 0;  ///< Phase scopes recorded into this phase.
  PmuCounts counts;
};

/// Process-wide profiler singleton. Start/Stop bound a session, mirroring
/// Tracer; like Tracer, they must not race with active Phase scopes (the
/// CLI starts before the run and stops after it returns).
class Profiler {
 public:
  /// Shared sample ring capacity (samples across all threads). At the
  /// default ~1 kHz that is many minutes of capture; overflow drops the
  /// newest samples and reports the count.
  static constexpr size_t kSampleRingCapacity = 1u << 16;
  /// Deepest captured backtrace; frames beyond this are truncated.
  static constexpr int kMaxFrames = 24;

  static Profiler& Global();

  void Start(const ProfilerOptions& options);
  void Stop();

  bool pmu_active() const {
    return pmu_active_.load(std::memory_order_relaxed);
  }
  bool sampling_active() const {
    return sampling_active_.load(std::memory_order_acquire);
  }

  /// Merges one phase-scoped counter delta (Phase::Stop).
  void RecordPhase(const char* phase, const PmuCounts& delta);

  /// The calling thread's counter group for the current session, opened
  /// lazily; nullptr when the PMU collector is off or unavailable.
  PmuGroup* ThreadGroup();

  /// Called from the SIGPROF handler with its ucontext (may be null).
  /// Async-signal-safe: records the interrupted PC as the leaf, walks the
  /// interrupted frame pointers, and publishes into the pre-allocated
  /// sample ring with atomics; never locks or allocates.
  void HandleSampleSignal(void* ucontext);

  uint64_t samples_recorded() const;
  uint64_t samples_dropped() const;

  std::map<std::string, PhaseProfile> PhaseSnapshot() const;

  /// One-line JSON object for stats-JSON's "profile" section:
  /// {"pmu":{...},"phases":{...},"sampling":{...}}. Valid in every
  /// configuration, including never-started.
  std::string RenderProfileJson() const;

  /// Collapsed-stack document ("frame;frame;... count" lines, root
  /// first), symbolized via dladdr at export time — the hot path never
  /// touches symbols. Empty when no samples were captured.
  std::string RenderCollapsedStacks() const;

  /// Writes RenderCollapsedStacks() to `path` (overwriting).
  Status WriteCollapsedStacks(const std::string& path) const;

 private:
  Profiler() = default;

  /// One captured backtrace. `seq` is 0 while a writer owns the slot and
  /// claim+1 once the payload is complete, so the exporter can discard
  /// torn slots without ever blocking the signal handler.
  struct SampleSlot {
    std::atomic<uint64_t> seq{0};
    int depth = 0;
    /// pcs[0] is the interrupted instruction, not a return address.
    bool exact_leaf = false;
    uintptr_t pcs[kMaxFrames];
  };

  std::atomic<bool> pmu_active_{false};
  std::atomic<bool> sampling_active_{false};
  std::atomic<uint64_t> session_{0};
  bool pmu_requested_ = false;
  uint64_t sample_interval_usec_ = 997;

  /// Sample ring storage: allocated once on the first sampling Start and
  /// never freed, so a straggler signal delivered around Stop can never
  /// touch freed memory. Raw pointer + mask cached for the handler.
  std::vector<SampleSlot>* sample_storage_ = nullptr;
  SampleSlot* sample_slots_ = nullptr;
  uint64_t sample_mask_ = 0;
  std::atomic<uint64_t> sample_cursor_{0};
  std::atomic<uint64_t> unresolved_samples_{0};

  mutable std::mutex mu_;
  std::map<std::string, PhaseProfile> phases_;
  std::vector<std::unique_ptr<PmuGroup>> groups_;
};

}  // namespace corrmine

#endif  // CORRMINE_COMMON_PROFILER_H_
