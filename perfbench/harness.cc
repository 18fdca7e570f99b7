// Worker process of the corrmine repository benchmark (perfbench/run.py is
// the entry point; see perfbench/NOTES.md for the workloads and metrics).
//
//   perfbench_harness population --out FILE
//   perfbench_harness prepare   --workload W --seed N --dir D --population F
//   perfbench_harness reference --workload W --dir D
//   perfbench_harness run       --workload W --dir D --seconds S --trace 0|1
//                               [--expect DIGEST]
//
// `prepare` and `reference` run outside the timed process: they write the
// seed's inputs into D and derive the reference digest from an independent
// configuration. `run` is the timed process. It drives the library through
// the calls a `corrmine_cli mine` run makes and prints line records that
// run.py turns into the result:
//
//   record <key> <value>            run record (machine, build, inputs)
//   sample <metric> <unit> <v>...   end-to-end samples, one per iteration:
//                                   run_s, setup_s and mine_s scaled by
//                                   the host probe, wall_* as measured,
//                                   probe_s the probe times
//   layer <metric> <unit> <v>       per-layer value (traced run)
//   count <name> <v>                work count (must repeat exactly)
//   digest <hex>                    digest of the final result
//   calls <attempted> <failed>      checked calls and failed ones
//   span <id> <parent> <name> <start_s> <dur_s> <self_s>
//   error <text>                    a failed call (the run continues)

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status_or.h"
#include "common/trace.h"
#include "core/border_repair.h"
#include "core/border_state.h"
#include "core/chi_squared_miner.h"
#include "core/session.h"
#include "datagen/quest_generator.h"
#include "io/binary_io.h"
#include "io/result_io.h"
#include "io/sharded_loader.h"
#include "io/stream_reader.h"
#include "itemset/count_provider.h"
#include "itemset/kernels.h"
#include "itemset/transaction_database.h"
#include "mining/partition.h"

// The harness reads the registry counters, which a metrics-off build
// compiles to zero.
#ifdef CORRMINE_METRICS_DISABLED
#error "perfbench needs the metrics layer"
#endif

namespace {

using namespace corrmine;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kMine, kOutOfCore, kRepair };

struct Workload {
  const char* name;
  Kind kind;
  uint64_t baskets;
  uint64_t support;
  int threads;
  // Thread count of the independent reference mine (kMine only; the other
  // kinds are checked against the in-memory from-scratch mine).
  int reference_threads;
  // Stream id of the seed's perturbation of the input.
  uint64_t stream;
};

// Each body takes about a second, so a run holds tens of samples and its
// medians do not hang on a few iterations that met a busy host. Two
// threads leave two of the four vCPUs to the OS, the harness and the host.
constexpr Workload kWorkloads[] = {
    {"mine-q400k", Kind::kMine, 400000, 10000, 2, 1, 1},
    {"outofcore-q500k", Kind::kOutOfCore, 500000, 25000, 2, 1, 2},
    {"repair-q200k", Kind::kRepair, 200000, 6000, 2, 1, 3},
};

constexpr double kCellFraction = 0.26;
// Quest population every input is cut from: the paper's §5.3 shape
// (870 items, |T| = 20, |I| = 4) at the generator's default seed, as long
// as the largest input.
constexpr uint64_t kPopulationBaskets = 500000;
constexpr uint64_t kPopulationSeed = 1997;
constexpr uint64_t kOutOfCoreBudget = uint64_t{32} << 20;
// Repair deltas: 1% of repair-q200k's base each.
constexpr int kRepairSteps = 2;
constexpr uint64_t kDeltaBaskets = 2000;
constexpr uint64_t kDeltaStream = 100;
// Iterations timed before the medians start: the first body of a fresh
// process also faults in its heap.
constexpr int kWarmupIterations = 1;
// Floor on the set-ups timed per run; iterations usually time far more.
constexpr size_t kMinSetupSamples = 5;
// HostProbe time the reported times are scaled to: about what it takes on
// a 4-vCPU Xeon VM.
constexpr double kProbeReferenceSeconds = 0.1;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

MinerOptions WorkloadMinerOptions(const Workload& w) {
  MinerOptions options;
  options.support.min_count = w.support;
  options.support.cell_fraction = kCellFraction;
  return options;
}

SessionOptions WorkloadSessionOptions(int threads) {
  SessionOptions options;
  options.num_threads = threads;
  return options;
}

std::string InputPath(const std::string& dir) { return dir + "/input.cmb"; }
std::string DeltaPath(const std::string& dir, int step) {
  return dir + "/delta-" + std::to_string(step) + ".cmb";
}
std::string SnapshotPath(const std::string& dir) { return dir + "/border.cbs"; }

// ---------------------------------------------------------------------------
// Small utilities

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// FNV-1a, 64-bit.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Add(uint64_t v) { Add(&v, sizeof v); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddLevelStats(const MiningResult& result, Digest* digest) {
  for (const LevelStats& level : result.levels) {
    for (uint64_t v : {static_cast<uint64_t>(level.level),
                       level.possible_itemsets, level.candidates,
                       level.discards, level.significant,
                       level.not_significant, level.chi2_tests,
                       level.masked_cells}) {
      digest->Add(v);
    }
  }
}

// Digest of a result: its io::SerializeMiningResult bytes plus every
// per-level stat.
std::string ResultDigest(const MiningResult& result) {
  Digest digest;
  const std::string bytes = io::SerializeMiningResult(result);
  digest.Add(bytes.data(), bytes.size());
  AddLevelStats(result, &digest);
  return digest.Hex();
}

// Same digest, taken from a file io::WriteMiningResult wrote, streamed so
// the check allocates nothing the size of the result.
StatusOr<std::string> WrittenResultDigest(const std::string& path,
                                          const MiningResult& result) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot reopen " + path);
  Digest digest;
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    digest.Add(buf.data(), static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IOError("error rereading " + path);
  AddLevelStats(result, &digest);
  return digest.Hex();
}

// Reads a file once through a small buffer so it sits in the page cache
// before timing starts, without growing the resident set.
void WarmPageCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  while (in) in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Uniform(std::mt19937_64& rng, uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(rng()) * bound) >> 64);
}

// Population baskets [begin, begin + n) with a seed-chosen 1% of them
// replaced by seed-chosen population baskets. Seeds thus perturb a fixed
// slice instead of drawing a new pattern table or a fresh sample: the
// lattice reacts to either with tens of percent more or less work (see
// NOTES.md), which would swamp the timing differences the benchmark is
// for.
StatusOr<TransactionDatabase> SeededSlice(const TransactionDatabase& population,
                                          uint64_t begin, uint64_t n,
                                          uint64_t seed, uint64_t stream) {
  if (begin + n > population.num_baskets()) {
    return Status::InvalidArgument("population too small");
  }
  std::vector<uint64_t> rows(n);
  for (uint64_t i = 0; i < n; ++i) rows[i] = begin + i;
  std::mt19937_64 rng(SplitMix(SplitMix(seed) ^ stream));
  for (uint64_t j = 0; j < n / 100; ++j) {
    const uint64_t position = Uniform(rng, n);
    rows[position] = Uniform(rng, population.num_baskets());
  }
  TransactionDatabase db(population.num_items());
  for (uint64_t row : rows) {
    CORRMINE_RETURN_NOT_OK(db.AddBasket(population.basket(row)));
  }
  return db;
}

// ---------------------------------------------------------------------------
// Command line

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// population / prepare / reference

Status Population(const Args& args) {
  datagen::QuestOptions options;
  options.num_transactions = kPopulationBaskets;
  options.seed = kPopulationSeed;
  CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase db,
                            datagen::GenerateQuestData(options));
  const std::string out = args.Get("out");
  const std::string tmp = out + ".tmp";
  CORRMINE_RETURN_NOT_OK(io::WriteBinaryTransactionFile(db, tmp));
  std::error_code ec;
  fs::rename(tmp, out, ec);
  if (ec) return Status::IOError("cannot rename " + tmp);
  return Status::OK();
}

// Fresh CBS1 snapshot of the base input: the first repair over an empty memo
// is the full mine, exactly as `corrmine_cli mine --border-out` makes it.
Status WriteSnapshot(const Workload& w, const std::string& dir) {
  CORRMINE_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::Open(InputPath(dir), WorkloadSessionOptions(w.threads)));
  BorderState state;
  state.num_items = session.num_items();
  state.num_baskets = session.num_baskets();
  state.item_names = session.dictionary().names();
  state.config = BorderMinerConfig::FromMinerOptions(WorkloadMinerOptions(w));
  CORRMINE_RETURN_NOT_OK(RepairBorder(session, &state).status());
  return SaveBorderState(state, SnapshotPath(dir));
}

Status Prepare(const Workload& w, const Args& args) {
  const std::string dir = args.Get("dir");
  const uint64_t seed = std::stoull(args.Get("seed", "1"));
  CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase population,
                            io::LoadTransactionFile(args.Get("population")));
  {
    CORRMINE_ASSIGN_OR_RETURN(
        TransactionDatabase input,
        SeededSlice(population, 0, w.baskets, seed, w.stream));
    CORRMINE_RETURN_NOT_OK(
        io::WriteBinaryTransactionFile(input, InputPath(dir)));
  }
  if (w.kind != Kind::kRepair) return Status::OK();
  for (int step = 0; step < kRepairSteps; ++step) {
    // Deltas are the population baskets after the base, step by step.
    const uint64_t begin = w.baskets + kDeltaBaskets * step;
    CORRMINE_ASSIGN_OR_RETURN(
        TransactionDatabase delta,
        SeededSlice(population, begin, kDeltaBaskets, seed,
                    kDeltaStream + static_cast<uint64_t>(step)));
    CORRMINE_RETURN_NOT_OK(
        io::WriteBinaryTransactionFile(delta, DeltaPath(dir, step)));
  }
  return WriteSnapshot(w, dir);
}

// Reference digest from a configuration independent of the timed one: the
// in-memory miner at another thread count (kMine), or the in-memory
// from-scratch mine of the same rows (out-of-core and repair, whose results
// are byte-identical to it by contract).
StatusOr<std::string> Reference(const Workload& w, const std::string& dir) {
  CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase db,
                            io::LoadTransactionFile(InputPath(dir)));
  if (w.kind == Kind::kRepair) {
    for (int step = 0; step < kRepairSteps; ++step) {
      CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase delta,
                                io::LoadTransactionFile(DeltaPath(dir, step)));
      if (delta.num_items() > db.num_items()) {
        CORRMINE_RETURN_NOT_OK(db.GrowItemSpace(delta.num_items()));
      }
      for (size_t row = 0; row < delta.num_baskets(); ++row) {
        CORRMINE_RETURN_NOT_OK(db.AddBasket(delta.basket(row)));
      }
    }
  }
  const int threads = w.kind == Kind::kMine ? w.reference_threads : w.threads;
  CORRMINE_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::FromDatabase(db, WorkloadSessionOptions(threads)));
  CORRMINE_ASSIGN_OR_RETURN(MiningResult result,
                            session.Mine(WorkloadMinerOptions(w)));
  return ResultDigest(result);
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the harness around each public call, kept in
// memory and printed when the run ends.

struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  int Begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, Now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end = Now(); }
  // A span whose interval the library reports (OutOfCoreStats).
  void Add(std::string name, int parent, double start, double duration) {
    spans_.push_back({std::move(name), parent, start, start + duration});
  }
  const std::vector<Span>& spans() const { return spans_; }

  double Duration(int id) const { return spans_[id].end - spans_[id].start; }
  // Duration minus the part of its interval its children cover.
  double SelfTime(int id) const {
    double children = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) children += s.end - s.start;
    }
    return Duration(id) - children;
  }
  // Sum of durations (or self times) of spans with this name.
  double Total(const std::string& name, bool self = false) const {
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        total += self ? SelfTime(static_cast<int>(i))
                      : Duration(static_cast<int>(i));
      }
    }
    return total;
  }
  size_t CountOf(const std::string& name) const {
    return static_cast<size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
  }

 private:
  std::vector<Span> spans_;
};

// Opens a span on a tracer when there is one; a no-op otherwise, so the
// untraced path pays nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// Times every count batch the miner sends (one `itemset.count` span each)
// and forwards it through the public uncounted entry point, so the
// count_provider.* counters tick once, from this decorator's wrapper.
class TimedCountProvider final : public CountProvider {
 public:
  TimedCountProvider(const CountProvider& inner, Tracer* tracer, int parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  uint64_t num_baskets() const override { return inner_.num_baskets(); }
  uint64_t calls() const { return calls_; }
  double cpu_seconds() const { return cpu_seconds_; }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override {
    uint64_t count = 0;
    CountAllPresentBatchImpl(std::span<const Itemset>(&s, 1),
                             std::span<uint64_t>(&count, 1), nullptr);
    return count;
  }

  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override {
    const double cpu = CpuSeconds();
    {
      SpanScope span(tracer_, "itemset.count", parent_);
      inner_.CountAllPresentBatchUncounted(queries, counts, pool);
    }
    cpu_seconds_ += CpuSeconds() - cpu;
    ++calls_;
  }

 private:
  const CountProvider& inner_;
  Tracer* tracer_;
  int parent_;
  mutable uint64_t calls_ = 0;
  mutable double cpu_seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// One iteration of a workload body

// Work counts that must repeat exactly for a given seed.
using WorkCounts = std::map<std::string, uint64_t>;

struct IterationResult {
  double run_s = 0.0;
  double setup_s = 0.0;
  double mine_s = 0.0;
  double mine_cpu_s = 0.0;
  WorkCounts counts;
  std::string digest;          // final result, checked against --expect
  std::vector<std::string> step_digests;  // intermediate repair steps
  uint64_t attempted = 0;
  uint64_t failed_status = 0;
  uint64_t rules = 0;
  uint64_t written_bytes = 0;
  uint64_t loaded_bytes = 0;
  uint64_t state_bytes = 0;
  // Out-of-core accounting.
  OutOfCoreStats ooc;
  double peak_rss_mb = 0.0;
  // Traced runs only.
  double count_cpu_s = 0.0;
  uint64_t count_calls = 0;
  int root = -1;
};

struct Inputs {
  std::string dir;
  std::vector<TransactionDatabase> deltas;
};

void RecordError(const Status& status, IterationResult* r) {
  ++r->failed_status;
  std::cout << "error " << status.ToString() << "\n";
}

uint64_t SumCandidates(const MiningResult& result, bool tests) {
  uint64_t total = 0;
  for (const LevelStats& level : result.levels) {
    total += tests ? level.chi2_tests : level.candidates;
  }
  return total;
}

void CountResult(const MiningResult& result, IterationResult* r) {
  r->counts["core.candidates"] += SumCandidates(result, false);
  r->counts["core.chi2_tests"] += SumCandidates(result, true);
  r->rules += result.significant.size();
}

// Loads the session: through MiningSession::Open when untraced, and through
// its two halves (io.load, itemset.index) when traced.
StatusOr<MiningSession> OpenSession(const Workload& w, const std::string& path,
                                    Tracer* tracer, int parent) {
  const SessionOptions options = WorkloadSessionOptions(w.threads);
  if (tracer == nullptr) return MiningSession::Open(path, options);
  std::optional<ShardedTransactionDatabase> db;
  {
    SpanScope span(tracer, "io.load", parent);
    CORRMINE_ASSIGN_OR_RETURN(
        db, io::LoadTransactionFileSharded(path, 1, options.num_items_hint));
  }
  SpanScope span(tracer, "itemset.index", parent);
  return MiningSession::FromShardedDatabase(std::move(*db), options);
}

Status WriteRules(const MiningResult& result, const std::string& path,
                  Tracer* tracer, int parent, IterationResult* r) {
  {
    SpanScope span(tracer, "io.write", parent);
    CORRMINE_RETURN_NOT_OK(io::WriteMiningResult(result, path));
  }
  r->written_bytes += FileBytes(path);
  return Status::OK();
}

void RunMine(const Workload& w, const Inputs& in, Tracer* tracer,
             IterationResult* r) {
  const double t0 = Now();
  SpanScope root(tracer, "workload");
  r->root = root.id();
  auto session = OpenSession(w, InputPath(in.dir), tracer, root.id());
  r->setup_s = Now() - t0;
  r->loaded_bytes = FileBytes(InputPath(in.dir));
  ++r->attempted;
  if (!session.ok()) return RecordError(session.status(), r);

  MinerOptions options = WorkloadMinerOptions(w);
  const double m0 = Now();
  const double c0 = CpuSeconds();
  StatusOr<MiningResult> result = Status::Internal("not run");
  if (tracer == nullptr) {
    result = session->Mine(options);
  } else {
    SpanScope span(tracer, "core.mine", root.id());
    TimedCountProvider timed(session->provider(), tracer, span.id());
    options.num_threads = session->num_threads();
    options.pool = session->pool();
    result = MineCorrelations(timed, session->num_items(), options);
    r->count_cpu_s = timed.cpu_seconds();
    r->count_calls = timed.calls();
  }
  r->mine_s = Now() - m0;
  r->mine_cpu_s = CpuSeconds() - c0;
  if (!result.ok()) return RecordError(result.status(), r);

  const std::string out = in.dir + "/out/rules.txt";
  Status written = WriteRules(*result, out, tracer, root.id(), r);
  r->run_s = Now() - t0;
  if (!written.ok()) return RecordError(written, r);
  CountResult(*result, r);
  auto digest = WrittenResultDigest(out, *result);
  if (!digest.ok()) return RecordError(digest.status(), r);
  r->digest = *digest;
}

void RunOutOfCore(const Workload& w, const Inputs& in, Tracer* tracer,
                  IterationResult* r) {
  const double t0 = Now();
  SpanScope root(tracer, "workload");
  r->root = root.id();
  OutOfCoreMinerOptions options;
  options.miner = WorkloadMinerOptions(w);
  options.miner.num_threads = w.threads;
  options.memory_budget_bytes = kOutOfCoreBudget;
  options.spill_dir = in.dir + "/spill";
  r->loaded_bytes = FileBytes(InputPath(in.dir));
  ++r->attempted;
  const double c0 = CpuSeconds();
  StatusOr<MiningResult> result = Status::Internal("not run");
  {
    SpanScope span(tracer, "mining.outofcore", root.id());
    result = MineCorrelationsOutOfCore(InputPath(in.dir), options, &r->ooc);
    if (tracer != nullptr) {
      // The library reports its phases as durations; lay them out in order
      // from the call's start (spill+pass 1, then pass 2; the final walk is
      // the span's self time).
      const double start = tracer->spans()[span.id()].start;
      tracer->Add("mining.spill_pass1", span.id(), start,
                  r->ooc.spill_pass1_seconds);
      tracer->Add("mining.pass2", span.id(),
                  start + r->ooc.spill_pass1_seconds, r->ooc.pass2_seconds);
    }
  }
  r->mine_s = Now() - t0;
  r->mine_cpu_s = CpuSeconds() - c0;
  if (!result.ok()) return RecordError(result.status(), r);

  const std::string out = in.dir + "/out/rules.txt";
  Status written = WriteRules(*result, out, tracer, root.id(), r);
  r->run_s = Now() - t0;
  if (!written.ok()) return RecordError(written, r);
  CountResult(*result, r);
  r->counts["io.spill_bytes"] = r->ooc.spilled_encoded_bytes;
  r->counts["mining.partitions"] = r->ooc.partitions;
  r->counts["mining.candidate_queries"] = r->ooc.candidate_queries;
  r->counts["memo.hits"] = r->ooc.memo_hits;
  r->counts["memo.misses"] = r->ooc.memo_misses;
  auto digest = WrittenResultDigest(out, *result);
  if (!digest.ok()) return RecordError(digest.status(), r);
  r->digest = *digest;
}

void RunRepair(const Workload& w, const Inputs& in, Tracer* tracer,
               IterationResult* r) {
  const double t0 = Now();
  SpanScope root(tracer, "workload");
  r->root = root.id();
  auto session = OpenSession(w, InputPath(in.dir), tracer, root.id());
  r->loaded_bytes = FileBytes(InputPath(in.dir));
  StatusOr<BorderState> state = Status::Internal("not run");
  {
    SpanScope span(tracer, "core.state_load", root.id());
    state = LoadBorderState(SnapshotPath(in.dir));
  }
  r->setup_s = Now() - t0;
  if (!session.ok() || !state.ok()) {
    ++r->attempted;
    return RecordError(session.ok() ? state.status() : session.status(), r);
  }

  MiningResult last;
  for (size_t step = 0; step < in.deltas.size(); ++step) {
    const TransactionDatabase& delta = in.deltas[step];
    ++r->attempted;
    Status appended;
    {
      SpanScope span(tracer, "core.append", root.id());
      appended = session->AppendBatch(delta);
    }
    if (appended.ok()) {
      SpanScope span(tracer, "core.fold", root.id());
      appended = ApplyAppendedChunk(&*state, delta);
    }
    if (!appended.ok()) return RecordError(appended, r);
    const double m0 = Now();
    const double c0 = CpuSeconds();
    StatusOr<MiningResult> result = Status::Internal("not run");
    {
      SpanScope span(tracer, "core.repair", root.id());
      result = RepairBorder(*session, &*state);
    }
    r->mine_s += Now() - m0;
    r->mine_cpu_s += CpuSeconds() - c0;
    if (!result.ok()) return RecordError(result.status(), r);
    CountResult(*result, r);
    if (step + 1 < in.deltas.size()) {
      // Checked outside the timers; the final step is checked from the
      // written rules below.
      const double pause = Now();
      SpanScope span(tracer, "harness.check", root.id());
      r->step_digests.push_back(ResultDigest(*result));
      r->run_s -= Now() - pause;
    }
    last = std::move(*result);
  }

  const std::string snapshot = in.dir + "/out/border.cbs";
  Status saved;
  {
    SpanScope span(tracer, "core.state_save", root.id());
    saved = SaveBorderState(*state, snapshot);
  }
  r->state_bytes = FileBytes(snapshot);
  const std::string out = in.dir + "/out/rules.txt";
  if (saved.ok()) saved = WriteRules(last, out, tracer, root.id(), r);
  r->run_s += Now() - t0;
  if (!saved.ok()) return RecordError(saved, r);
  auto digest = WrittenResultDigest(out, last);
  if (!digest.ok()) return RecordError(digest.status(), r);
  r->digest = *digest;
}

IterationResult RunIteration(const Workload& w, const Inputs& in,
                             Tracer* tracer) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricsRegistry::Snapshot before = registry.Snap();
  IterationResult r;
  try {
    switch (w.kind) {
      case Kind::kMine:
        RunMine(w, in, tracer, &r);
        break;
      case Kind::kOutOfCore:
        RunOutOfCore(w, in, tracer, &r);
        break;
      case Kind::kRepair:
        RunRepair(w, in, tracer, &r);
        break;
    }
  } catch (const std::exception& e) {
    // A failed call, not a crashed benchmark.
    RecordError(Status::Internal(e.what()), &r);
    r.attempted = std::max(r.attempted, r.failed_status);
  }
  const MetricsRegistry::Snapshot after = registry.Snap();
  auto delta = [&](const std::string& name) -> uint64_t {
    auto a = after.counters.find(name);
    if (a == after.counters.end()) return 0;
    auto b = before.counters.find(name);
    return a->second - (b == before.counters.end() ? 0 : b->second);
  };
  r.counts["itemset.count_queries"] = delta("count_provider.batch_queries");
  r.counts["itemset.and_words"] =
      delta("kernel.and_words") + delta("kernel.block_and_words");
  if (w.kind == Kind::kRepair) {
    r.counts["memo.hits"] = delta("repair.memo_hits");
    r.counts["memo.misses"] = delta("repair.memo_misses");
  }
  // Schedule-dependent, so reported but never compared.
  r.counts["pool.tasks"] = delta("pool.tasks_executed");
  r.counts["pool.steals"] = delta("pool.steal_count");
  return r;
}

// Counts that must not drift between iterations or runs of one seed.
bool IsWorkCount(const std::string& name) {
  return name.rfind("pool.", 0) != 0;
}

// ---------------------------------------------------------------------------
// Kernel rate: AND+popcount words/s of ActiveKernels() on two operands the
// length of the workload's bitmaps, measured in the same process.

double KernelWordsPerSecond(uint64_t baskets) {
  const size_t words = static_cast<size_t>((baskets + 63) / 64);
  std::mt19937_64 rng(42);
  std::vector<uint64_t> a(words), b(words);
  for (size_t i = 0; i < words; ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  const CountingKernels& kernels = ActiveKernels();
  uint64_t sink = 0;
  uint64_t total = 0;
  const double start = Now();
  double elapsed = 0.0;
  while (elapsed < 0.3) {
    for (int rep = 0; rep < 64; ++rep) {
      sink += kernels.and_count(a.data(), b.data(), words);
      a[rep % words] ^= sink;  // keeps the loop from being hoisted
    }
    total += 64 * words;
    elapsed = Now() - start;
  }
  std::cout << "record kernel_check " << (sink & 1) << "\n";
  return static_cast<double>(total) / elapsed;
}

// ---------------------------------------------------------------------------
// Host speed probe: fixed work that calls no library code, timed between
// the bodies. The host's speed drifts by tens of percent over minutes, and
// the probe slows with it while it stays the same for every build of the
// library, so the bodies' times are reported scaled by it (see
// HostScaled). Its three parts take about a third each: dependent random
// reads over 32 MiB, AND+popcount over two 1 MiB arrays, and touching
// 32 MiB of freshly mapped pages.
class HostProbe {
 public:
  HostProbe() : table_(kTableWords), a_(kStreamWords), b_(kStreamWords) {
    // One random cycle through the table, so every read depends on the last.
    std::vector<uint64_t> order(kTableWords);
    std::iota(order.begin(), order.end(), uint64_t{0});
    std::mt19937_64 rng(7);
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t i = 0; i < kTableWords; ++i) {
      table_[order[i]] = order[(i + 1) % kTableWords];
    }
    for (size_t i = 0; i < kStreamWords; ++i) {
      a_[i] = rng();
      b_[i] = rng();
    }
  }

  double Seconds() {
    const double t0 = Now();
    uint64_t x = 0;
    for (int i = 0; i < kChaseSteps; ++i) x = table_[x];
    uint64_t ones = 0;
    for (int pass = 0; pass < kStreamPasses; ++pass) {
      for (size_t i = 0; i < kStreamWords; ++i) {
        ones += static_cast<uint64_t>(__builtin_popcountll(a_[i] & b_[i]));
      }
      a_[pass] ^= ones;  // keeps the passes from being folded into one
    }
    void* fresh = mmap(nullptr, kFreshBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (fresh != MAP_FAILED) {
      auto* bytes = static_cast<volatile char*>(fresh);
      for (size_t off = 0; off < kFreshBytes; off += 4096) bytes[off] = 1;
      munmap(fresh, kFreshBytes);
    }
    sink_ += x + ones;
    return Now() - t0;
  }
  uint64_t sink() const { return sink_; }

 private:
  static constexpr size_t kTableWords = size_t{4} << 20;
  static constexpr int kChaseSteps = 120000;
  static constexpr size_t kStreamWords = size_t{1} << 17;
  static constexpr int kStreamPasses = 40;
  static constexpr size_t kFreshBytes = size_t{32} << 20;

  std::vector<uint64_t> table_;
  std::vector<uint64_t> a_, b_;
  uint64_t sink_ = 0;
};

// Wall-time samples, each with the probe timed just before it. A sample's
// host time is the mean of the probes either side of it, and its scaled
// value the wall time on a host on which the probe takes
// kProbeReferenceSeconds.
struct HostScaled {
  std::vector<double> wall;
  std::vector<size_t> before;

  void Add(double seconds, size_t probe) {
    wall.push_back(seconds);
    before.push_back(probe);
  }
  std::vector<double> Scaled(const std::vector<double>& probes) const {
    std::vector<double> out;
    for (size_t k = 0; k < wall.size(); ++k) {
      const double host = 0.5 * (probes[before[k]] + probes[before[k] + 1]);
      out.push_back(wall[k] * kProbeReferenceSeconds / host);
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// run

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintRecord(const Workload& w, const std::string& dir) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int usable = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) usable = CPU_COUNT(&set);
  std::cout << "record nproc " << std::thread::hardware_concurrency() << "\n"
            << "record usable_cores " << usable << "\n"
            << "record kernel " << ActiveKernelName() << "\n"
            << "record build_type " << PERFBENCH_BUILD_TYPE << "\n"
            << "record corrmine_metrics ON\n"
            << "record cpu_model " << CpuModel() << "\n"
            << "record workload " << w.name << "\n"
            << "record threads " << w.threads << "\n"
            << "record baskets " << w.baskets << "\n"
            << "record support " << w.support << "\n"
            << "record input_bytes " << FileBytes(InputPath(dir)) << "\n";
}

void PrintSamples(const char* name, const char* unit,
                  const std::vector<double>& values) {
  std::cout << "sample " << name << " " << unit;
  for (double v : values) std::cout << " " << v;
  std::cout << "\n";
}

// One set-up: MiningSession::Open, and on repair also LoadBorderState, as
// the iterations time them. The out-of-core workload never loads the
// dataset; its set-up is a streaming pass over the input through the reader
// its spill pass uses.
StatusOr<double> TimeSetup(const Workload& w, const std::string& dir) {
  const double t0 = Now();
  if (w.kind == Kind::kOutOfCore) {
    ItemId items = 0;
    uint64_t baskets = 0;
    CORRMINE_RETURN_NOT_OK(io::StreamTransactionFile(
        InputPath(dir), &items, [&](std::vector<ItemId>) {
          ++baskets;
          return Status::OK();
        }));
    if (baskets != w.baskets) {
      return Status::Corruption("streaming pass read " +
                                std::to_string(baskets) + " baskets");
    }
    return Now() - t0;
  }
  CORRMINE_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::Open(InputPath(dir), WorkloadSessionOptions(w.threads)));
  std::optional<BorderState> state;
  if (w.kind == Kind::kRepair) {
    CORRMINE_ASSIGN_OR_RETURN(state, LoadBorderState(SnapshotPath(dir)));
  }
  return Now() - t0;
}

void Layer(const std::string& name, const char* unit, double value) {
  std::cout << "layer " << name << " " << unit << " " << value << "\n";
}

// `t` is the first traced iteration and `tracer` its spans. `stream_load_s`
// is the out-of-core set-up (a streaming pass), which stands in for io.load
// on the one workload that never loads the dataset.
void PrintTrace(const Workload& w, const Tracer& tracer,
                const IterationResult& t, double trace_overhead,
                double stream_load_s, double kernel_rate) {
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::cout << "span " << i << " " << s.parent << " " << s.name << " "
              << s.start << " " << (s.end - s.start) << " "
              << tracer.SelfTime(static_cast<int>(i)) << "\n";
  }
  const double run_s = t.run_s;
  double covered = 0.0;
  for (const Span& s : spans) {
    if (s.parent == t.root && s.name != "harness.check") {
      covered += s.end - s.start;
    }
  }
  auto safe_div = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double load_s = w.kind == Kind::kOutOfCore ? stream_load_s
                                                   : tracer.Total("io.load");
  const double write_s = tracer.Total("io.write");
  const double count_s = tracer.Total("itemset.count");
  const double walk_self_s = tracer.Total("core.mine", true) +
                             tracer.Total("core.repair", true) +
                             tracer.Total("mining.outofcore", true);
  const uint64_t candidates = t.counts.at("core.candidates");
  const uint64_t and_words = t.counts.at("itemset.and_words");
  const uint64_t hits = t.counts.count("memo.hits") ? t.counts.at("memo.hits") : 0;
  const uint64_t misses =
      t.counts.count("memo.misses") ? t.counts.at("memo.misses") : 0;

  Layer("io.load_s", "s", load_s);
  Layer("io.load_mb_per_s", "MB/s", safe_div(t.loaded_bytes / 1e6, load_s));
  Layer("io.write_s", "s", write_s);
  Layer("io.write_mb_per_s", "MB/s",
          safe_div(t.written_bytes / 1e6, write_s));
  Layer("io.spill_bytes", "bytes",
          static_cast<double>(t.ooc.spilled_encoded_bytes));
  Layer("io.spill_ratio", "ratio",
          safe_div(static_cast<double>(t.ooc.spilled_encoded_bytes),
                   static_cast<double>(t.ooc.spilled_payload_bytes)));
  Layer("itemset.count_queries", "count",
          static_cast<double>(t.counts.at("itemset.count_queries")));
  Layer("itemset.count_calls", "count", static_cast<double>(t.count_calls));
  Layer("itemset.and_words", "count", static_cast<double>(and_words));
  Layer("itemset.kernel_words_per_s", "words/s", kernel_rate);
  const double achieved = safe_div(static_cast<double>(and_words), count_s);
  Layer("itemset.kernel_frac", "ratio", safe_div(achieved, kernel_rate));
  Layer("core.walk_self_s", "s", walk_self_s);
  Layer("core.walk_ns_per_candidate", "ns",
          safe_div(walk_self_s * 1e9, static_cast<double>(candidates)));
  Layer("core.candidates", "count", static_cast<double>(candidates));
  Layer("core.chi2_tests", "count",
          static_cast<double>(t.counts.at("core.chi2_tests")));
  Layer("core.test_ratio", "ratio",
          safe_div(static_cast<double>(t.counts.at("core.chi2_tests")),
                   static_cast<double>(candidates)));
  Layer("core.rules", "count", static_cast<double>(t.rules));
  Layer("core.memo_hit_ratio", "ratio",
          safe_div(static_cast<double>(hits),
                   static_cast<double>(hits + misses)));
  Layer("core.state_bytes", "bytes", static_cast<double>(t.state_bytes));
  Layer("mining.partitions", "count",
          static_cast<double>(t.ooc.partitions));
  Layer("mining.admitted", "count",
          w.kind == Kind::kOutOfCore ? t.ooc.admitted : 0);
  Layer("mining.candidate_queries", "count",
          static_cast<double>(t.ooc.candidate_queries));
  Layer("mining.final_hit_ratio", "ratio",
          safe_div(static_cast<double>(t.ooc.memo_hits),
                   static_cast<double>(t.ooc.candidate_queries)));
  Layer("mining.rss_over_budget", "ratio",
          w.kind == Kind::kOutOfCore
              ? t.peak_rss_mb * 1048576.0 / static_cast<double>(kOutOfCoreBudget)
              : 0.0);
  Layer("common.cpu_util_mine", "ratio",
          safe_div(t.mine_cpu_s, t.mine_s * w.threads));
  Layer("common.cpu_util_count", "ratio",
          safe_div(t.count_cpu_s, count_s * w.threads));
  Layer("common.pool_tasks", "count",
          static_cast<double>(t.counts.at("pool.tasks")));
  Layer("common.pool_steals", "count",
          static_cast<double>(t.counts.at("pool.steals")));
  Layer("trace_overhead", "ratio", trace_overhead);
  Layer("trace.span_coverage", "ratio", safe_div(covered, run_s));
  // Layer times that exist on some workloads only (report lines).
  if (tracer.CountOf("itemset.index") > 0) {
    Layer("itemset.index_s", "s", tracer.Total("itemset.index"));
  }
  if (tracer.CountOf("itemset.count") > 0) {
    Layer("itemset.count_s", "s", count_s);
    Layer("itemset.count_ns_per_query", "ns",
            safe_div(count_s * 1e9,
                     static_cast<double>(t.counts.at("itemset.count_queries"))));
    Layer("itemset.and_words_per_s", "words/s", achieved);
  }
  for (const char* name : {"core.append", "core.fold", "core.repair",
                           "core.state_load", "core.state_save",
                           "mining.spill_pass1", "mining.pass2"}) {
    if (tracer.CountOf(name) > 0) {
      Layer(std::string(name) + "_s", "s", tracer.Total(name));
    }
  }
  if (w.kind == Kind::kOutOfCore) {
    Layer("mining.final_s", "s", tracer.Total("mining.outofcore", true));
  }
}

int Run(const Workload& w, const Args& args) {
  Inputs in;
  in.dir = args.Get("dir");
  const double seconds = std::stod(args.Get("seconds", "10"));
  const bool trace = args.Get("trace", "0") == "1";
  const std::string expect = args.Get("expect");
  std::error_code ec;
  fs::create_directories(in.dir + "/out", ec);

  // Input preparation, outside every timer.
  WarmPageCache(InputPath(in.dir));
  if (w.kind == Kind::kRepair) {
    WarmPageCache(SnapshotPath(in.dir));
    for (int step = 0; step < kRepairSteps; ++step) {
      auto delta = io::LoadTransactionFile(DeltaPath(in.dir, step));
      if (!delta.ok()) {
        std::cout << "error " << delta.status().ToString() << "\n";
        return 1;
      }
      in.deltas.push_back(std::move(*delta));
    }
  }
  PrintRecord(w, in.dir);

  HostScaled run_s, mine_s, setup_s;
  std::vector<double> peak_rss, traced_run_s;
  uint64_t attempted = 0, failed = 0;
  std::optional<WorkCounts> first_counts;
  std::vector<std::string> first_steps;
  bool repeat_ok = true;
  Tracer tracer;
  std::optional<IterationResult> traced;
  // Built after the warm-up body, so peak_rss_mb leaves its buffers out.
  std::optional<HostProbe> probe;
  auto probe_seconds = [&probe] {
    if (!probe) probe.emplace();
    return probe->Seconds();
  };
  std::vector<double> probes;
  const double start = Now();
  for (int i = 0;; ++i) {
    const bool warmup = i < kWarmupIterations;
    // Traced runs alternate untraced and traced iterations, so the
    // overhead compares neighbours in one process.
    const bool traced_iteration = trace && i % 2 == 1;
    if (!warmup) probes.push_back(probe_seconds());
    const size_t before = probes.size() - 1;
    if (w.kind == Kind::kOutOfCore && !warmup) {
      // This workload has no set-up inside its body; its set-up pass is
      // timed between bodies, so the samples spread over the run as the
      // other workloads' do.
      ++attempted;
      StatusOr<double> setup = TimeSetup(w, in.dir);
      if (setup.ok()) {
        setup_s.Add(*setup, before);
      } else {
        std::cout << "error " << setup.status().ToString() << "\n";
        ++failed;
      }
    }
    Tracer local;
    IterationResult r = RunIteration(w, in, traced_iteration ? &local : nullptr);
    // Process peak so far: for the first iteration, the peak of one fresh
    // process running the workload body once, independent of how many
    // iterations fit in the run.
    r.peak_rss_mb = static_cast<double>(PeakRssBytes()) / 1048576.0;
    attempted += r.attempted;
    uint64_t wrong = 0;
    if (r.failed_status == 0 && !expect.empty() && r.digest != expect) {
      std::cout << "error digest " << r.digest << " != expected " << expect
                << "\n";
      wrong = 1;
    }
    if (r.failed_status == 0 && !first_steps.empty() &&
        r.step_digests != first_steps) {
      std::cout << "error repair step digests differ between iterations\n";
      wrong = 1;
    }
    failed += r.failed_status + wrong;
    if (r.failed_status == 0) {
      std::cout << "digest " << r.digest << "\n";
      if (first_steps.empty()) first_steps = r.step_digests;
      WorkCounts work;
      for (const auto& [name, value] : r.counts) {
        if (IsWorkCount(name)) work[name] = value;
      }
      if (!first_counts) {
        first_counts = work;
      } else if (work != *first_counts) {
        std::cout << "error work counts differ between iterations\n";
        repeat_ok = false;
      }
      if (peak_rss.empty()) peak_rss.push_back(r.peak_rss_mb);
      if (traced_iteration) {
        traced_run_s.push_back(r.run_s);
        if (!traced) {
          traced = r;
          // The process peak after the first body, as peak_rss_mb reports
          // it; later peaks include the probe's buffers.
          traced->peak_rss_mb = peak_rss.front();
          tracer = local;
        }
      } else if (!warmup) {
        run_s.Add(r.run_s, before);
        mine_s.Add(r.mine_s, before);
        if (w.kind != Kind::kOutOfCore) setup_s.Add(r.setup_s, before);
      }
    }
    const double elapsed = Now() - start;
    const double per_iteration = elapsed / (i + 1);
    // Untraced runs time the body at least twice after the warm-up, so no
    // median rests on a single sample.
    const bool enough = trace ? (traced.has_value() && !run_s.wall.empty())
                              : run_s.wall.size() >= 2;
    if (failed > 0 && i >= 1) break;
    if (enough && elapsed + per_iteration > seconds) break;
    if (i >= 1000) break;
  }
  // The probe after the last body.
  probes.push_back(probe_seconds());
  // Every timed iteration gives one set-up sample; when few fit, the rest
  // up to kMinSetupSamples are timed here. Traced runs report no setup_s,
  // except that the out-of-core set-up pass stands in for io.load_s.
  if (!trace || w.kind == Kind::kOutOfCore) {
    while (setup_s.wall.size() < kMinSetupSamples) {
      ++attempted;
      StatusOr<double> setup = TimeSetup(w, in.dir);
      if (!setup.ok()) {
        std::cout << "error " << setup.status().ToString() << "\n";
        ++failed;
        break;
      }
      setup_s.Add(*setup, probes.size() - 1);
      probes.push_back(probe_seconds());
    }
  }

  if (first_counts) {
    for (const auto& [name, value] : *first_counts) {
      std::cout << "count " << name << " " << value << "\n";
    }
  }
  PrintSamples("run_s", "s", run_s.Scaled(probes));
  PrintSamples("setup_s", "s", setup_s.Scaled(probes));
  PrintSamples("mine_s", "s", mine_s.Scaled(probes));
  PrintSamples("peak_rss_mb", "MiB", peak_rss);
  PrintSamples("wall_run_s", "s", run_s.wall);
  PrintSamples("wall_setup_s", "s", setup_s.wall);
  PrintSamples("wall_mine_s", "s", mine_s.wall);
  PrintSamples("probe_s", "s", probes);
  std::cout << "record probe_check " << (probe->sink() & 1) << "\n";
  if (trace && traced) {
    const double overhead = run_s.wall.empty()
                                ? 0.0
                                : Median(traced_run_s) / Median(run_s.wall);
    PrintTrace(w, tracer, *traced, overhead, Median(setup_s.wall),
               KernelWordsPerSecond(w.baskets));
  }
  std::cout << "calls " << attempted << " " << failed << "\n";
  if (!repeat_ok) std::cout << "repeat_mismatch\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout.precision(17);
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness population|prepare|reference|run "
                 "[--flag value]...\n";
    return 2;
  }
  const std::string mode = argv[1];
  const Args args(argc, argv);
  if (mode == "population") {
    Status status = Population(args);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  const Workload* w = FindWorkload(args.Get("workload"));
  if (w == nullptr) {
    std::cerr << "unknown workload: " << args.Get("workload") << "\n";
    return 2;
  }
  if (mode == "prepare") {
    Status status = Prepare(*w, args);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  if (mode == "reference") {
    auto digest = Reference(*w, args.Get("dir"));
    if (!digest.ok()) {
      std::cerr << digest.status().ToString() << "\n";
      return 1;
    }
    std::cout << "digest " << *digest << "\n";
    return 0;
  }
  if (mode == "run") return Run(*w, args);
  std::cerr << "unknown mode: " << mode << "\n";
  return 2;
}
