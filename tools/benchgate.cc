// Scheduler bench-regression gate: reads the BENCH_JSON lines emitted by
// bench_parallel and bench_sharded, checks the parallel-scaling contract,
// and writes the merged BENCH_scheduler.json trajectory file.
//
// The thresholds are parallelism-aware because the contract is physical: a
// "3.0x at 8 threads" floor is only meaningful on a machine with at least 8
// usable cores. Below that the gate scales the requirement to the cores the
// process can actually run on (affinity- and cgroup-clamped, the same
// resolution `--threads 0` uses), bottoming out at "threads must not hurt"
// (>= 0.85x) on one core. Likewise the sharded-overhead check (a K-shard
// batch must stay within 10% of the monolithic layout at the same thread
// count) is enforced only for K <= usable cores — sharding past the core
// count is a known locality trade, not a scheduler regression; those runs
// are reported unenforced.
//
// Usage:
//   benchgate --out BENCH_scheduler.json parallel_out.txt sharded_out.txt
//
// Exit status: 0 when every enforced gate passes, 1 otherwise (and the
// failing gates are printed), 2 on usage/parse errors.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "common/thread_pool.h"
#include "io/json_reader.h"

namespace corrmine {
namespace {

constexpr char kBenchJsonPrefix[] = "BENCH_JSON ";

struct ParallelRun {
  int threads = 0;
  double seconds = 0.0;
  double speedup = 0.0;
};

struct ShardedRun {
  int shards = 0;
  int threads = 0;
  double seconds = 0.0;
};

struct IncrementalRun {
  double delta_fraction = 0.0;
  double full_seconds = 0.0;
  double repair_seconds = 0.0;
  double speedup = 0.0;
};

struct OutOfCoreRun {
  double budget_bytes = 0.0;
  double dataset_bytes = 0.0;
  double peak_rss_bytes = 0.0;
  double partitions = 0.0;
  double seconds = 0.0;
  double serial_seconds = 0.0;
  double spilled_payload_bytes = 0.0;
  double spilled_encoded_bytes = 0.0;
  double sweep_speedup = 0.0;
  double admitted = 0.0;
};

struct Gate {
  std::string name;
  double required = 0.0;  // threshold in the gate's own unit
  double actual = 0.0;
  bool pass = false;
  bool enforced = true;  // unenforced gates are recorded but never fail
};

/// Required 8-thread speedup given the usable core count: the full 3.0x
/// contract at >= 8 cores, proportionally scaled below, floored at 0.85x
/// ("threads must not actively hurt") so the gate still means something on
/// a 1-core container.
double RequiredSpeedup(int usable_cores) {
  if (usable_cores >= 8) return 3.0;
  return std::max(0.85, 3.0 * static_cast<double>(usable_cores) / 8.0);
}

/// Ceiling on the observer-overhead ratios (traced/untraced and
/// profiled/unprofiled wall clock, each best-of-3 interleaved). The 1.05x
/// contract assumes enough cores that the collectors' bookkeeping hides in
/// idle cycles; on narrow machines (< 4 usable cores — e.g. a 1-core
/// container) every observer instruction competes with the miner for the
/// same core and scheduler jitter is proportionally larger, so the ceiling
/// relaxes to 1.15x rather than reporting noise as a regression.
double RequiredObserverOverhead(int usable_cores) {
  return usable_cores >= 4 ? 1.05 : 1.15;
}

/// Repair-speedup floor for <= 1% deltas. The advantage is memoized
/// counting, not parallelism, so it survives on one core — but a 1-core
/// box runs both sides serially and absorbs every fixed cost (plan build,
/// candidate generation) into a longer denominator-free repair, so the
/// floor is relaxed below the full 5.0x contract on narrow machines.
double RequiredRepairSpeedup(int usable_cores) {
  if (usable_cores >= 4) return 5.0;
  return usable_cores >= 2 ? 4.0 : 3.0;
}

/// Sweep speedup floor: wall seconds inside the forced-serial out-of-core
/// run's sweeps over the parallel run's. A sweep needs real cores to count
/// partitions side by side: below 4 usable cores the sweep width typically
/// lands at 1-2 partitions and the measurement is dominated by scheduler
/// jitter, so the gate is recorded report-only there (see the 1-core
/// container note) and only enforced at >= 4 cores.
constexpr double kRequiredSweepSpeedup = 1.5;

/// Ceiling on the v2 spill compression ratio (encoded / raw payload
/// bytes). Core-independent: the delta-varint/run-length min-byte rule is
/// a property of the data, not the machine, and the bench corpus (sorted
/// quest rows) must compress to at most 0.7x of a v1 raw spill.
constexpr double kRequiredSpillRatio = 0.7;

double GetNumber(const io::JsonValue& obj, const char* key) {
  const io::JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : 0.0;
}

/// Extracts every BENCH_JSON payload from a bench binary's captured stdout.
StatusOr<std::vector<io::JsonValue>> ReadBenchLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open bench output: " + path);
  }
  std::vector<io::JsonValue> docs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kBenchJsonPrefix, 0) != 0) continue;
    CORRMINE_ASSIGN_OR_RETURN(
        io::JsonValue doc,
        io::ParseJson(line.substr(sizeof(kBenchJsonPrefix) - 1)));
    docs.push_back(std::move(doc));
  }
  if (docs.empty()) {
    return Status::InvalidArgument("no BENCH_JSON line in " + path);
  }
  return docs;
}

std::string FormatRatio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace
}  // namespace corrmine

int main(int argc, char** argv) {
  using namespace corrmine;

  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::cerr << "benchgate: unknown flag " << argv[i] << "\n";
      return 2;
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    std::cerr << "usage: benchgate [--out BENCH_scheduler.json] "
                 "<bench_output.txt>...\n";
    return 2;
  }

  const int usable = ThreadPool::UsableHardwareConcurrency();
  // name -> best-of-3 overhead ratio from bench_parallel's observer blocks.
  std::map<std::string, double> observer_ratios;
  std::vector<ParallelRun> parallel_runs;
  std::vector<ShardedRun> sharded_runs;
  std::vector<IncrementalRun> incremental_runs;
  std::vector<OutOfCoreRun> outofcore_runs;
  for (const std::string& path : inputs) {
    auto docs = ReadBenchLines(path);
    if (!docs.ok()) {
      std::cerr << "benchgate: " << docs.status().ToString() << "\n";
      return 2;
    }
    for (const io::JsonValue& doc : *docs) {
      const io::JsonValue* bench = doc.Find("bench");
      const io::JsonValue* runs = doc.Find("runs");
      if (bench == nullptr || !bench->is_string() || runs == nullptr ||
          !runs->is_array()) {
        continue;
      }
      if (bench->string_value == "bench_parallel") {
        for (const io::JsonValue& run : runs->array) {
          parallel_runs.push_back(
              ParallelRun{static_cast<int>(GetNumber(run, "threads")),
                          GetNumber(run, "seconds"),
                          GetNumber(run, "speedup")});
        }
        // The observer-overhead blocks ride on the same BENCH_JSON line.
        for (const char* observer : {"trace", "profile"}) {
          const io::JsonValue* block = doc.Find(observer);
          if (block == nullptr || !block->is_object()) continue;
          double ratio = GetNumber(*block, "overhead_ratio");
          if (ratio > 0.0) observer_ratios[observer] = ratio;
        }
      } else if (bench->string_value == "bench_sharded") {
        for (const io::JsonValue& run : runs->array) {
          sharded_runs.push_back(
              ShardedRun{static_cast<int>(GetNumber(run, "shards")),
                         static_cast<int>(GetNumber(run, "threads")),
                         GetNumber(run, "seconds")});
        }
      } else if (bench->string_value == "bench_incremental") {
        for (const io::JsonValue& run : runs->array) {
          incremental_runs.push_back(
              IncrementalRun{GetNumber(run, "delta_fraction"),
                             GetNumber(run, "full_seconds"),
                             GetNumber(run, "repair_seconds"),
                             GetNumber(run, "speedup")});
        }
      } else if (bench->string_value == "bench_outofcore") {
        for (const io::JsonValue& run : runs->array) {
          outofcore_runs.push_back(
              OutOfCoreRun{GetNumber(run, "budget_bytes"),
                           GetNumber(run, "dataset_bytes"),
                           GetNumber(run, "peak_rss_bytes"),
                           GetNumber(run, "partitions"),
                           GetNumber(run, "seconds"),
                           GetNumber(run, "serial_seconds"),
                           GetNumber(run, "spilled_payload_bytes"),
                           GetNumber(run, "spilled_encoded_bytes"),
                           GetNumber(run, "sweep_speedup"),
                           GetNumber(run, "admitted")});
        }
      }
    }
  }

  std::vector<Gate> gates;
  // Single-bench invocations skip the scheduler contract (and vice
  // versa): each verify stage feeds benchgate the outputs it owns.
  const bool outofcore_mode =
      !outofcore_runs.empty() && parallel_runs.empty() &&
      sharded_runs.empty() && incremental_runs.empty();
  const bool incremental_mode =
      !incremental_runs.empty() && parallel_runs.empty() &&
      sharded_runs.empty() && outofcore_runs.empty();
  const bool scheduler_required = !incremental_mode && !outofcore_mode;

  // Gate 1: end-to-end miner speedup at the widest measured thread count.
  if (!parallel_runs.empty()) {
    const ParallelRun* widest = &parallel_runs.front();
    for (const ParallelRun& run : parallel_runs) {
      if (run.threads > widest->threads) widest = &run;
    }
    Gate gate;
    gate.name = "parallel_speedup_t" + std::to_string(widest->threads);
    gate.required = RequiredSpeedup(usable);
    gate.actual = widest->speedup;
    gate.pass = gate.actual >= gate.required;
    gates.push_back(gate);
  } else if (scheduler_required) {
    std::cerr << "benchgate: no bench_parallel runs found\n";
    return 2;
  }

  // Gate 1b: the observer contract — tracing and profiling are pure
  // observers, so turning them on must cost almost nothing. Enforced on
  // the same best-of-3 interleaved measurements bench_parallel already
  // takes; the ceiling is core-scaled (see RequiredObserverOverhead).
  for (const auto& [observer, ratio] : observer_ratios) {
    Gate gate;
    gate.name = observer + std::string("_overhead");
    gate.required = RequiredObserverOverhead(usable);
    gate.actual = ratio;
    gate.pass = gate.actual <= gate.required;
    gates.push_back(gate);
  }
  if (observer_ratios.empty() && scheduler_required) {
    std::cerr << "benchgate: no observer-overhead blocks in bench_parallel "
                 "output\n";
    return 2;
  }

  // Gate 2: sharded batch counting must stay within 10% of the monolithic
  // layout at the same thread count — enforced while K fits the cores.
  std::map<int, double> mono_seconds;  // threads -> shards=1 seconds
  for (const ShardedRun& run : sharded_runs) {
    if (run.shards == 1) mono_seconds[run.threads] = run.seconds;
  }
  for (const ShardedRun& run : sharded_runs) {
    if (run.shards <= 1) continue;
    auto mono = mono_seconds.find(run.threads);
    if (mono == mono_seconds.end() || mono->second <= 0.0) continue;
    Gate gate;
    gate.name = "sharded_overhead_k" + std::to_string(run.shards) + "_t" +
                std::to_string(run.threads);
    gate.required = 1.10;  // max allowed seconds ratio vs shards=1
    gate.actual = run.seconds / mono->second;
    gate.pass = gate.actual <= gate.required;
    gate.enforced = run.shards <= usable;
    gates.push_back(gate);
  }
  if (sharded_runs.empty() && scheduler_required) {
    std::cerr << "benchgate: no bench_sharded runs found\n";
    return 2;
  }

  // Gate 3: border repair vs. full re-mine — enforced for small (<= 1%)
  // deltas, where the memo should absorb nearly all counting. Larger
  // deltas are recorded unenforced: as the delta grows, repair converges
  // to a full mine by construction.
  for (const IncrementalRun& run : incremental_runs) {
    std::ostringstream name;
    name << "repair_speedup_d" << run.delta_fraction;
    Gate gate;
    gate.name = name.str();
    gate.required = RequiredRepairSpeedup(usable);
    gate.actual = run.speedup;
    gate.pass = gate.actual >= gate.required;
    gate.enforced = run.delta_fraction <= 0.0101;
    gates.push_back(gate);
  }

  // Gates 4+5: the out-of-core memory contract (DESIGN.md §12). Unlike
  // the speedup gates these are NOT core-scaled — a byte budget is a
  // machine-independent promise (RSS does not grow with parallelism the
  // way wall-clock shrinks), so a 1-core container enforces the same
  // 1.1x ceiling as a 64-core box. The companion gate pins the scenario
  // itself: the dataset's in-memory footprint must be >= 10x the budget,
  // or the RSS ceiling would be trivially satisfiable by loading
  // everything.
  for (size_t i = 0; i < outofcore_runs.size(); ++i) {
    const OutOfCoreRun& run = outofcore_runs[i];
    if (run.budget_bytes <= 0.0) continue;
    Gate rss;
    rss.name = "outofcore_rss_b" + std::to_string(i);
    rss.required = 1.10;  // max allowed peak-RSS / budget ratio
    rss.actual = run.peak_rss_bytes / run.budget_bytes;
    rss.pass = rss.actual <= rss.required;
    gates.push_back(rss);
    Gate overhang;
    overhang.name = "outofcore_dataset_b" + std::to_string(i);
    overhang.required = 10.0;  // min dataset / budget ratio
    overhang.actual = run.dataset_bytes / run.budget_bytes;
    overhang.pass = overhang.actual >= overhang.required;
    gates.push_back(overhang);
    // Gate 6: the v2 spill must beat a raw v1 spill by >= 30% on the
    // bench corpus. Core-independent — compression is about the data.
    if (run.spilled_payload_bytes > 0.0) {
      Gate ratio;
      ratio.name = "spill_ratio_b" + std::to_string(i);
      ratio.required = kRequiredSpillRatio;  // max encoded/raw bytes
      ratio.actual = run.spilled_encoded_bytes / run.spilled_payload_bytes;
      ratio.pass = ratio.actual <= ratio.required;
      gates.push_back(ratio);
    }
    // Gate 7: the parallel sweeps must beat the forced-serial ones —
    // enforced only with enough cores to count partitions side by side
    // (the 1-core container records it report-only; threads=0 resolves to
    // one worker there and the "speedup" is pure noise around 1.0x).
    if (run.sweep_speedup > 0.0) {
      Gate scaling;
      scaling.name = "outofcore_scaling_b" + std::to_string(i);
      scaling.required = kRequiredSweepSpeedup;
      scaling.actual = run.sweep_speedup;
      scaling.pass = scaling.actual >= scaling.required;
      scaling.enforced = usable >= 4;
      gates.push_back(scaling);
    }
  }

  bool all_pass = true;
  for (const Gate& gate : gates) {
    if (gate.enforced && !gate.pass) all_pass = false;
  }

  // BENCH_scheduler.json: the machine-readable trajectory record — the
  // environment the thresholds were resolved against, every gate with its
  // verdict, and the raw runs the verdicts came from. Every number goes
  // through FormatJsonNumber so byte counts seed the trajectory file as
  // exact integers, never scientific notation.
  const auto num = [](double v) { return bench::FormatJsonNumber(v); };
  std::ostringstream json;
  json << "{\"bench\":\""
       << (outofcore_mode
               ? "bench_outofcore"
               : (incremental_mode ? "bench_incremental" : "bench_scheduler"))
       << "\",\"usable_cores\":" << usable;
  if (scheduler_required) {
    json << ",\"required_speedup\":" << num(RequiredSpeedup(usable));
  }
  if (!observer_ratios.empty()) {
    json << ",\"required_observer_overhead\":"
         << num(RequiredObserverOverhead(usable));
  }
  if (!incremental_runs.empty()) {
    json << ",\"required_repair_speedup\":"
         << num(RequiredRepairSpeedup(usable));
  }
  if (!outofcore_runs.empty()) {
    json << ",\"required_rss_ratio\":1.1,\"required_dataset_ratio\":10"
         << ",\"required_spill_ratio\":" << num(kRequiredSpillRatio)
         << ",\"required_sweep_speedup\":" << num(kRequiredSweepSpeedup);
  }
  json << ",\"pass\":" << (all_pass ? "true" : "false") << ",\"gates\":[";
  for (size_t i = 0; i < gates.size(); ++i) {
    const Gate& gate = gates[i];
    if (i > 0) json << ',';
    json << "{\"name\":\"" << gate.name
         << "\",\"required\":" << num(gate.required)
         << ",\"actual\":" << num(gate.actual)
         << ",\"pass\":" << (gate.pass ? "true" : "false")
         << ",\"enforced\":" << (gate.enforced ? "true" : "false") << '}';
  }
  json << "]";
  if (scheduler_required) {
    json << ",\"parallel_runs\":[";
    for (size_t i = 0; i < parallel_runs.size(); ++i) {
      if (i > 0) json << ',';
      json << "{\"threads\":" << parallel_runs[i].threads
           << ",\"seconds\":" << num(parallel_runs[i].seconds)
           << ",\"speedup\":" << num(parallel_runs[i].speedup) << '}';
    }
    json << "],\"sharded_runs\":[";
    for (size_t i = 0; i < sharded_runs.size(); ++i) {
      if (i > 0) json << ',';
      json << "{\"shards\":" << sharded_runs[i].shards
           << ",\"threads\":" << sharded_runs[i].threads
           << ",\"seconds\":" << num(sharded_runs[i].seconds) << '}';
    }
    json << "]";
  }
  if (!incremental_runs.empty()) {
    json << ",\"incremental_runs\":[";
    for (size_t i = 0; i < incremental_runs.size(); ++i) {
      const IncrementalRun& run = incremental_runs[i];
      if (i > 0) json << ',';
      json << "{\"delta_fraction\":" << num(run.delta_fraction)
           << ",\"full_seconds\":" << num(run.full_seconds)
           << ",\"repair_seconds\":" << num(run.repair_seconds)
           << ",\"speedup\":" << num(run.speedup) << '}';
    }
    json << "]";
  }
  if (!outofcore_runs.empty()) {
    json << ",\"outofcore_runs\":[";
    for (size_t i = 0; i < outofcore_runs.size(); ++i) {
      const OutOfCoreRun& run = outofcore_runs[i];
      if (i > 0) json << ',';
      json << "{\"budget_bytes\":" << num(run.budget_bytes)
           << ",\"dataset_bytes\":" << num(run.dataset_bytes)
           << ",\"peak_rss_bytes\":" << num(run.peak_rss_bytes)
           << ",\"partitions\":" << num(run.partitions)
           << ",\"seconds\":" << num(run.seconds)
           << ",\"serial_seconds\":" << num(run.serial_seconds)
           << ",\"spilled_payload_bytes\":" << num(run.spilled_payload_bytes)
           << ",\"spilled_encoded_bytes\":" << num(run.spilled_encoded_bytes)
           << ",\"sweep_speedup\":" << num(run.sweep_speedup)
           << ",\"admitted\":" << num(run.admitted) << '}';
    }
    json << "]";
  }
  json << "}";

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    out << json.str() << "\n";
    if (!out) {
      std::cerr << "benchgate: cannot write " << out_path << "\n";
      return 2;
    }
  }

  if (outofcore_mode) {
    std::cout << "benchgate: " << usable
              << " usable core(s); memory and compression gates are "
                 "core-independent (peak RSS <= 1.1x budget, dataset >= "
                 "10x budget, spill <= 0.7x raw); sweep scaling "
              << (usable >= 4 ? "enforced" : "report-only") << "\n";
  } else {
    std::cout << "benchgate: " << usable << " usable core(s), required "
              << FormatRatio(incremental_mode ? RequiredRepairSpeedup(usable)
                                              : RequiredSpeedup(usable))
              << "x speedup\n";
  }
  for (const Gate& gate : gates) {
    std::cout << "  [" << (gate.pass ? "PASS" : (gate.enforced ? "FAIL"
                                                               : "info"))
              << "] " << gate.name << ": " << FormatRatio(gate.actual)
              << " vs " << FormatRatio(gate.required)
              << (gate.enforced ? "" : " (not enforced)") << "\n";
  }
  std::cout << (all_pass ? "benchgate: OK\n" : "benchgate: FAILED\n");
  return all_pass ? 0 : 1;
}
