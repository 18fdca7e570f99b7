#ifndef CORRMINE_COMMON_METRICS_H_
#define CORRMINE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace corrmine {

/// Observability substrate for the mining pipeline (see DESIGN.md §6):
/// named counters, gauges and histograms registered in a MetricsRegistry.
/// Phases are timed by common/phase.h. The hot-path operations
/// (Counter::Add, Histogram::Observe) are a single relaxed atomic on a
/// thread-striped shard, so instrumented inner loops stay contention-free.

/// Monotonic counter sharded across cache lines: concurrent workers land on
/// different shards (thread-striped), reads sum them. Totals are exact; only
/// Value() pays the sum.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Thread-striped shard pick: each thread gets a sticky index, so a
  /// worker never bounces between shards within one parallel region.
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins signed value (cache sizes, configuration echoes).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }

  /// Raises the gauge to `value` when that is higher: a high-water mark.
  void SetMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < value && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram of uint64 samples (durations in ns, batch
/// sizes). Bucket b counts samples in [2^(b-1), 2^b); bucket 0 counts
/// zeros and ones. Sum/min/max are tracked exactly.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t value);

  struct Data {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    std::array<uint64_t, kBuckets> buckets{};
  };
  Data Value() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Owns the named metrics of one process. Library code records into
/// Global(); a test or bench that reads a run's numbers calls
/// Global().Reset() before the run. Handles returned by the Get* methods
/// stay valid for the registry's lifetime — Reset() zeroes values in
/// place, it never invalidates pointers.
class MetricsRegistry {
 public:
  /// The process-wide default registry.
  static MetricsRegistry& Global();

  /// Finds or creates the named metric. Thread-safe; cache the pointer
  /// outside hot loops (lookup takes the registry mutex).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram::Data> histograms;
  };
  Snapshot Snap() const;

  /// Compact single-line JSON of the snapshot (schema in DESIGN.md §6).
  std::string ToJson() const;

  /// Human-readable multi-line report of every metric.
  std::string DumpMetrics() const;

  /// Zeroes every counter/gauge/histogram. Existing handles stay valid.
  /// Intended for tests and between independent runs in one process.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace corrmine

#endif  // CORRMINE_COMMON_METRICS_H_
