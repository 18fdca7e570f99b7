// Command-line front end: mine correlation rules (or the support-confidence
// baseline) from a transaction file, or from a built-in generated dataset.
//
// Usage:
//   corrmine_cli mine <file> [--support-count N] [--cell-fraction P]
//                            [--confidence-level A] [--max-level L]
//                            [--min-expected E] [--algo levelwise|walk]
//   corrmine_cli rules <file> [--min-support F] [--min-confidence C]
//   corrmine_cli generate quest|census|text [--out FILE] [--seed S]
//                            [--baskets N]
//   corrmine_cli --help
//
// Transaction files: one basket per line, whitespace-separated integer
// item ids ('#' starts a comment line), or the CMB1 binary encoding —
// readers auto-detect. mine/rules/check all route through MiningSession,
// which owns the (optionally sharded) dataset, the counting provider, and
// the thread pool.

#include <algorithm>
#include <iostream>
#include <iterator>
#include <limits>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/border_repair.h"
#include "core/border_state.h"
#include "core/interest.h"
#include "core/report.h"
#include "core/session.h"
#include "datagen/census_generator.h"
#include "datagen/quest_generator.h"
#include "datagen/text_generator.h"
#include "io/binary_io.h"
#include "io/chunked_io.h"
#include "io/format_detect.h"
#include "io/sharded_loader.h"
#include "itemset/kernels.h"
#include "io/csv.h"
#include "io/result_io.h"
#include "io/stats_json.h"
#include "io/table_printer.h"
#include "io/transaction_io.h"
#include "mining/association_rules.h"
#include "mining/categorical_miner.h"
#include "mining/partition.h"
#include "stats/permutation_test.h"

namespace corrmine {
namespace {

constexpr char kUsage[] =
    "corrmine_cli — correlation-rule mining (Brin/Motwani/Silverstein '97)\n"
    "\n"
    "commands:\n"
    "  mine <file>      mine minimal correlated itemsets\n"
    "      --names                baskets are word tokens, not integer ids\n"
    "      --support-count N      cell support count s (default 3)\n"
    "      --cell-fraction P      supported-cell fraction p (default 0.26)\n"
    "      --confidence-level A   chi2 significance level (default 0.95)\n"
    "      --max-level L          stop after itemsets of size L (0 = off)\n"
    "      --min-expected E       ignore cells with expectation < E\n"
    "      --threads T            worker threads for candidate evaluation\n"
    "                             (default 1; 0 = one per hardware thread;\n"
    "                             output is identical for any T)\n"
    "      --shards K             partition the dataset into K shards and\n"
    "                             count per shard (default 1; 0 = one per\n"
    "                             hardware thread; output is identical for\n"
    "                             any K — see DESIGN.md §7)\n"
    "      --out-of-core          never load the dataset: stream it into\n"
    "                             RAM-sized compressed CCS spill\n"
    "                             partitions while counting every item,\n"
    "                             then run the level-wise walk with one\n"
    "                             sweep over the partitions per level\n"
    "                             (DESIGN.md §12). Output is\n"
    "                             byte-identical to the in-memory mine;\n"
    "                             honors --threads and the mining flags,\n"
    "                             excludes --shards/--names/--resume-from/\n"
    "                             --append/--border-out\n"
    "      --memory-budget B      out-of-core resident-set target in bytes\n"
    "                             (default 268435456); partitions are\n"
    "                             sized so peak RSS stays near it\n"
    "      --partition-budget B   bytes of basket rows per spill partition\n"
    "                             (default memory-budget/6, min 1 MiB).\n"
    "                             Must not exceed --memory-budget; a\n"
    "                             sweep counts about\n"
    "                             memory-budget / (2 x partition-budget)\n"
    "                             partitions concurrently, so setting it\n"
    "                             equal to --memory-budget forces sweeps\n"
    "                             that count one partition at a time\n"
    "                             (admitted = 1)\n"
    "      --spill-dir DIR        out-of-core partition directory\n"
    "                             (default <file>.spill, removed after\n"
    "                             the run unless --keep-spill)\n"
    "      --keep-spill           leave the CCS partition files on disk\n"
    "      --kernel NAME          counting kernel: auto (default), scalar,\n"
    "                             avx2, avx512, or neon. auto picks the\n"
    "                             fastest kernel this CPU supports; a forced\n"
    "                             kernel must be compiled in and supported.\n"
    "                             Counts and mined output are identical for\n"
    "                             every kernel — only throughput changes\n"
    "      --algo levelwise|walk  search strategy (default levelwise)\n"
    "      --walks N              random walks when --algo walk\n"
    "      --resume-from SNAP     load a border snapshot (CBS1) and repair\n"
    "                             it against the file's current contents —\n"
    "                             the mined output is byte-identical to a\n"
    "                             from-scratch mine, but counting only\n"
    "                             touches rows the snapshot has not seen.\n"
    "                             Mining flags are taken from the snapshot,\n"
    "                             not the command line; tail chunks appended\n"
    "                             to the file since the snapshot are folded\n"
    "                             in automatically\n"
    "      --append FILE          append FILE's baskets to the in-memory\n"
    "                             session before mining (with --resume-from:\n"
    "                             delta repair without touching the input\n"
    "                             file). Not available with --names\n"
    "      --border-out SNAP      write the border snapshot after mining —\n"
    "                             the input to a later --resume-from\n"
    "      --out FILE             also write the result in the line format\n"
    "      --stats-json FILE      write run statistics as JSON (schema\n"
    "                             corrmine-stats-v1: a \"deterministic\"\n"
    "                             section identical for any --threads, and\n"
    "                             a \"runtime\" metrics snapshot)\n"
    "      --stats                print the metrics report to stderr\n"
    "      --trace-out FILE       record execution trace events (span\n"
    "                             begin/end per run, level, shard batch,\n"
    "                             pool task) and write them as Chrome\n"
    "                             Trace Event Format JSON — open in\n"
    "                             Perfetto (ui.perfetto.dev) or\n"
    "                             chrome://tracing. Mined output and the\n"
    "                             deterministic stats section are\n"
    "                             byte-identical with or without tracing\n"
    "      --pmu                  attribute hardware counters (cycles, IPC,\n"
    "                             LLC and branch miss rates) to mining\n"
    "                             phases via perf_event_open; the breakdown\n"
    "                             lands in the stats-JSON \"profile\"\n"
    "                             section. Degrades gracefully where the\n"
    "                             syscall is denied (containers, VMs):\n"
    "                             pmu.available:false plus a reason, never\n"
    "                             an error\n"
    "      --profile-out FILE     sample stacks at ~1 kHz of CPU time\n"
    "                             (SIGPROF) and write a collapsed-stack\n"
    "                             profile — feed to flamegraph.pl, or\n"
    "                             `sort | head` for a quick hot-path view.\n"
    "                             Combines with --trace-out (samples appear\n"
    "                             as instant events on the timeline).\n"
    "                             Mined output and the deterministic stats\n"
    "                             section are byte-identical with or\n"
    "                             without profiling\n"
    "      --progress             heartbeat to stderr after each completed\n"
    "                             lattice level (candidates, frontier,\n"
    "                             significant total, and the seconds spent\n"
    "                             evaluating the level and generating the\n"
    "                             next one's candidates)\n"
    "      --report               render the analyst report instead of the\n"
    "                             raw rule table (honors --fdr)\n"
    "      --fdr Q                Benjamini-Hochberg FDR filter level\n"
    "  check <file>     test one itemset exactly (Monte Carlo permutation)\n"
    "      --items A,B[,C...]     item ids to test (required)\n"
    "      --rounds N             permutation rounds (default 1000)\n"
    "  rules <file>     support-confidence association rules (baseline)\n"
    "      --min-support F        support fraction (default 0.01)\n"
    "      --min-confidence C     confidence cutoff (default 0.5)\n"
    "      --algo apriori|eclat   frequent-itemset miner (default apriori)\n"
    "      --threads T            worker threads (default 1; 0 = auto)\n"
    "      --shards K             dataset shards (default 1; 0 = auto)\n"
    "  dependencies <csv>  chi-squared dependencies between multi-valued\n"
    "                      attributes (CSV: header + label rows)\n"
    "      --confidence-level A   significance level (default 0.95)\n"
    "      --min-expected E       ignore cells with expectation < E\n"
    "  ingest <file>    maintain a chunked binary transaction file\n"
    "      --append DELTA         append DELTA's baskets as a new tail\n"
    "                             chunk (DELTA may be text or binary; a\n"
    "                             text base file is converted to binary\n"
    "                             in place first)\n"
    "      --retire N             drop the N oldest chunks — sliding-window\n"
    "                             retirement; the file may not become empty\n"
    "                             With neither flag, prints the chunk layout\n"
    "  generate <kind>  write a synthetic dataset (quest|census|text)\n"
    "      --out FILE             output path (default <kind>.txt)\n"
    "      --baskets N            override basket count\n"
    "      --seed S               generator seed\n"
    "      --format text|binary   output encoding (readers auto-detect)\n";

/// A non-negative integer flag that lands in an int. Values past INT32_MAX
/// are rejected: narrowing would silently wrap them, turning
/// --max-level 4294967299 into 3 and --max-level 2147483648 into a
/// negative "no limit".
StatusOr<int> GetIntFlag(const FlagParser& flags, const std::string& name,
                         int fallback) {
  CORRMINE_ASSIGN_OR_RETURN(
      uint64_t value, flags.GetUint64(name, static_cast<uint64_t>(fallback)));
  if (value > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument(
        "--" + name + " " + std::to_string(value) + " is out of range (max " +
        std::to_string(std::numeric_limits<int32_t>::max()) + ")");
  }
  return static_cast<int>(value);
}

/// Session knobs shared by mine and rules: --threads and --shards follow
/// the same convention (default 1, 0 = one per hardware thread).
StatusOr<SessionOptions> SessionOptionsFromFlags(const FlagParser& flags) {
  SessionOptions options;
  CORRMINE_ASSIGN_OR_RETURN(options.num_threads,
                            GetIntFlag(flags, "threads", 1));
  CORRMINE_ASSIGN_OR_RETURN(options.num_shards,
                            GetIntFlag(flags, "shards", 1));
  options.named_items = flags.GetBool("names", false);
  return options;
}

/// Mining knobs shared by the in-memory and out-of-core mine paths.
StatusOr<MinerOptions> MinerOptionsFromFlags(const FlagParser& flags) {
  MinerOptions options;
  CORRMINE_ASSIGN_OR_RETURN(options.support.min_count,
                            flags.GetUint64("support-count", 3));
  CORRMINE_ASSIGN_OR_RETURN(options.support.cell_fraction,
                            flags.GetDouble("cell-fraction", 0.26));
  CORRMINE_ASSIGN_OR_RETURN(options.confidence_level,
                            flags.GetDouble("confidence-level", 0.95));
  CORRMINE_ASSIGN_OR_RETURN(options.max_level,
                            GetIntFlag(flags, "max-level", 0));
  CORRMINE_ASSIGN_OR_RETURN(options.chi2.min_expected_cell,
                            flags.GetDouble("min-expected", 0.0));
  if (flags.GetBool("progress", false)) {
    // Heartbeat on the coordinating thread after each completed level; goes
    // to stderr so piped stdout (tables, reports) stays clean.
    options.progress = [](const MinerProgress& p) {
      std::cerr << "[progress] level " << p.level << ": candidates "
                << p.candidates << ", frontier " << p.frontier
                << ", significant " << p.significant_total << ", evaluate "
                << io::FormatDouble(static_cast<double>(p.evaluate_ns) / 1e9, 2)
                << "s, generate "
                << io::FormatDouble(static_cast<double>(p.generate_ns) / 1e9, 2)
                << "s\n";
    };
  }
  return options;
}

/// Renders a mining result — the report or the rule table plus per-level
/// lines — and honors --out. `dict` may be null (out-of-core runs have no
/// session to borrow a dictionary from).
Status PrintMineResult(const FlagParser& flags, const MiningResult& result,
                       const ItemDictionary* dict) {
  if (flags.GetBool("report", false)) {
    ReportOptions report_options;
    CORRMINE_ASSIGN_OR_RETURN(report_options.fdr_level,
                              flags.GetDouble("fdr", 0.0));
    std::cout << RenderReport(result, dict, report_options);
  } else {
    io::TablePrinter table({"itemset", "chi2", "p-value",
                            "major dependence", "interest"});
    for (const CorrelationRule& rule : result.significant) {
      table.AddRow({rule.itemset.ToString(),
                    io::FormatDouble(rule.chi2.statistic, 3),
                    io::FormatDouble(rule.chi2.p_value, 6),
                    FormatCellPattern(rule.itemset,
                                      rule.major_dependence.mask, dict),
                    io::FormatDouble(rule.major_dependence.interest, 3)});
    }
    table.Print(std::cout);
    for (const LevelStats& level : result.levels) {
      std::cout << "level " << level.level << ": |CAND| "
                << level.candidates << ", discards " << level.discards
                << ", |SIG| " << level.significant << ", |NOTSIG| "
                << level.not_significant << "\n";
    }
  }
  std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    CORRMINE_RETURN_NOT_OK(io::WriteMiningResult(result, out));
    std::cout << "result written to " << out << "\n";
  }
  return Status::OK();
}

/// Honors --stats-json/--stats against `registry`.
Status EmitMineStats(const FlagParser& flags, const MiningResult& result,
                     const MetricsRegistry& registry) {
  std::string stats_path = flags.GetString("stats-json", "");
  bool print_stats = flags.GetBool("stats", false);
  if (!stats_path.empty()) {
    CORRMINE_RETURN_NOT_OK(
        WriteStatsJson(stats_path, RenderStatsJson(result, registry)));
    std::cout << "stats written to " << stats_path << "\n";
  }
  if (print_stats) std::cerr << registry.DumpMetrics();
  return Status::OK();
}

/// Starts the tracer when --trace-out was given; the returned guard stops
/// tracing and writes the Chrome-format file when it leaves scope (so the
/// trace is flushed even on early error returns).
class TraceOutGuard {
 public:
  explicit TraceOutGuard(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) Tracer::Global().Start();
  }
  ~TraceOutGuard() {
    if (path_.empty()) return;
    Tracer& tracer = Tracer::Global();
    tracer.Stop();
    Status status = tracer.WriteChromeJson(path_);
    if (status.ok()) {
      std::cout << "trace written to " << path_ << "\n";
    } else {
      std::cerr << "trace write failed: " << status.ToString() << "\n";
    }
  }
  TraceOutGuard(const TraceOutGuard&) = delete;
  TraceOutGuard& operator=(const TraceOutGuard&) = delete;

 private:
  std::string path_;
};

/// Starts the profiler when --pmu and/or --profile-out were given; stops
/// it and writes the collapsed-stack file when it leaves scope. Construct
/// AFTER TraceOutGuard so sampling stops (and its instant events are all
/// in the rings) before the trace is exported. A denied PMU prints a
/// one-line notice — the run itself is never affected.
class ProfileOutGuard {
 public:
  ProfileOutGuard(std::string profile_path, bool pmu)
      : path_(std::move(profile_path)), enabled_(pmu || !path_.empty()) {
    if (!enabled_) return;
    ProfilerOptions options;
    options.pmu = pmu;
    options.sampling = !path_.empty();
    if (pmu && !ProbePmu().available) {
      std::cerr << "[pmu] unavailable: " << ProbePmu().reason << "\n";
    }
    Profiler::Global().Start(options);
  }
  ~ProfileOutGuard() {
    if (!enabled_) return;
    Profiler& profiler = Profiler::Global();
    profiler.Stop();
    if (path_.empty()) return;
    Status status = profiler.WriteCollapsedStacks(path_);
    if (status.ok()) {
      std::cout << "profile written to " << path_ << "\n";
    } else {
      std::cerr << "profile write failed: " << status.ToString() << "\n";
    }
  }
  ProfileOutGuard(const ProfileOutGuard&) = delete;
  ProfileOutGuard& operator=(const ProfileOutGuard&) = delete;

 private:
  std::string path_;
  bool enabled_ = false;
};

/// The --out-of-core mine path: never loads the dataset; streams it once
/// into CCS spill partitions under the --memory-budget, then runs the
/// level-wise walk with one sweep of the partitions per level
/// (mining/partition.h). Output is byte-identical to the in-memory mine of
/// the same file with the same mining flags.
Status RunMineOutOfCore(const FlagParser& flags) {
  TraceOutGuard trace_guard(flags.GetString("trace-out", ""));
  ProfileOutGuard profile_guard(flags.GetString("profile-out", ""),
                                flags.GetBool("pmu", false));
  for (const char* incompatible :
       {"names", "resume-from", "append", "border-out", "shards"}) {
    if (flags.HasFlag(incompatible)) {
      return Status::InvalidArgument(
          std::string("--out-of-core cannot be combined with --") +
          incompatible);
    }
  }
  if (flags.GetString("algo", "levelwise") != "levelwise") {
    return Status::InvalidArgument("--out-of-core requires --algo levelwise");
  }
  OutOfCoreMinerOptions options;
  CORRMINE_ASSIGN_OR_RETURN(options.miner, MinerOptionsFromFlags(flags));
  CORRMINE_ASSIGN_OR_RETURN(options.miner.num_threads,
                            GetIntFlag(flags, "threads", 1));
  CORRMINE_ASSIGN_OR_RETURN(
      options.memory_budget_bytes,
      flags.GetUint64("memory-budget", uint64_t{256} << 20));
  CORRMINE_ASSIGN_OR_RETURN(options.partition_budget_bytes,
                            flags.GetUint64("partition-budget", 0));
  if (options.partition_budget_bytes > options.memory_budget_bytes) {
    return Status::InvalidArgument(
        "--partition-budget must not exceed --memory-budget");
  }
  options.spill_dir = flags.GetString("spill-dir", "");
  options.keep_spill = flags.GetBool("keep-spill", false);

  OutOfCoreStats stats;
  CORRMINE_ASSIGN_OR_RETURN(
      MiningResult result,
      MineCorrelationsOutOfCore(flags.positional()[1], options, &stats));
  std::cerr << "[out-of-core] " << stats.num_baskets << " baskets, "
            << stats.num_items << " items, " << stats.partitions
            << " partitions (sweep width " << stats.admitted << "), "
            << stats.candidate_queries << " swept queries, spill "
            << stats.spilled_encoded_bytes << "/"
            << stats.spilled_payload_bytes << " bytes\n";
  CORRMINE_RETURN_NOT_OK(PrintMineResult(flags, result, nullptr));
  return EmitMineStats(flags, result, MetricsRegistry::Global());
}

Status RunMine(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("mine: missing transaction file");
  }
  if (flags.GetBool("out-of-core", false)) {
    return RunMineOutOfCore(flags);
  }
  TraceOutGuard trace_guard(flags.GetString("trace-out", ""));
  ProfileOutGuard profile_guard(flags.GetString("profile-out", ""),
                                flags.GetBool("pmu", false));
  CORRMINE_ASSIGN_OR_RETURN(SessionOptions session_options,
                            SessionOptionsFromFlags(flags));
  CORRMINE_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::Open(flags.positional()[1], session_options));
  if (session.num_baskets() == 0) {
    return Status::InvalidArgument("no baskets in input");
  }

  CORRMINE_ASSIGN_OR_RETURN(MinerOptions options,
                            MinerOptionsFromFlags(flags));

  const std::string resume_path = flags.GetString("resume-from", "");
  const std::string append_path = flags.GetString("append", "");
  const std::string border_out = flags.GetString("border-out", "");
  std::string algo = flags.GetString("algo", "levelwise");
  if ((!resume_path.empty() || !border_out.empty()) && algo != "levelwise") {
    return Status::InvalidArgument(
        "--resume-from/--border-out require --algo levelwise");
  }

  std::optional<BorderState> state;
  if (!resume_path.empty()) {
    CORRMINE_ASSIGN_OR_RETURN(BorderState loaded,
                              LoadBorderState(resume_path));
    state.emplace(std::move(loaded));
    if (session.num_baskets() < state->num_baskets) {
      return Status::FailedPrecondition(
          "input has " + std::to_string(session.num_baskets()) +
          " baskets but the snapshot covers " +
          std::to_string(state->num_baskets) +
          " — after retiring chunks, re-mine with --border-out instead of "
          "resuming");
    }
    if (session.num_baskets() > state->num_baskets) {
      // Rows past the snapshot's coverage are tail chunks appended since it
      // was written (ingest --append): fold them into the memo so the
      // repair only ever re-counts the delta. The tail's rows are read back
      // from the session's bitmaps.
      const TransactionDatabase tail =
          session.ReadRows(state->num_baskets, session.num_baskets());
      CORRMINE_RETURN_NOT_OK(ApplyAppendedChunk(&*state, tail));
      std::cerr << "[repair] folded " << tail.num_baskets()
                << " appended baskets from the input file into the "
                   "snapshot\n";
    }
  }
  if (!append_path.empty()) {
    if (session_options.named_items) {
      return Status::InvalidArgument(
          "--append is id-based and cannot be combined with --names (the "
          "delta's token->id mapping would not match the session's)");
    }
    CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase delta,
                              io::LoadTransactionFile(append_path));
    CORRMINE_RETURN_NOT_OK(session.AppendBatch(delta));
    if (state) CORRMINE_RETURN_NOT_OK(ApplyAppendedChunk(&*state, delta));
  }

  MiningResult result;
  if (state || !border_out.empty()) {
    if (!state) {
      // Fresh snapshot: the first repair over an empty memo is exactly a
      // full mine, and it leaves the memo primed for later resumes.
      state.emplace();
      state->num_items = session.num_items();
      state->num_baskets = session.num_baskets();
      state->item_names = session.dictionary().names();
      state->config = BorderMinerConfig::FromMinerOptions(options);
    }
    CORRMINE_ASSIGN_OR_RETURN(result, RepairBorder(session, &*state));
  } else if (algo == "levelwise") {
    CORRMINE_ASSIGN_OR_RETURN(result, session.Mine(options));
  } else if (algo == "walk") {
    RandomWalkOptions walk;
    walk.miner = options;
    CORRMINE_ASSIGN_OR_RETURN(walk.num_walks,
                              GetIntFlag(flags, "walks", 1000));
    CORRMINE_ASSIGN_OR_RETURN(result, session.MineRandomWalk(walk));
  } else {
    return Status::InvalidArgument("unknown --algo: " + algo);
  }

  CORRMINE_RETURN_NOT_OK(
      PrintMineResult(flags, result, &session.dictionary()));
  if (!border_out.empty()) {
    CORRMINE_RETURN_NOT_OK(SaveBorderState(*state, border_out));
    std::cout << "border snapshot written to " << border_out << " ("
              << state->counts.size() << " memoized counts)\n";
  }

  return EmitMineStats(flags, result, MetricsRegistry::Global());
}

Status RunDependencies(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("dependencies: missing CSV file");
  }
  CORRMINE_ASSIGN_OR_RETURN(CategoricalDatabase db,
                            io::ReadCategoricalCsv(flags.positional()[1]));
  CategoricalMinerOptions options;
  CORRMINE_ASSIGN_OR_RETURN(options.confidence_level,
                            flags.GetDouble("confidence-level", 0.95));
  CORRMINE_ASSIGN_OR_RETURN(options.min_expected_cell,
                            flags.GetDouble("min-expected", 0.0));
  CORRMINE_ASSIGN_OR_RETURN(auto deps,
                            MineCategoricalDependencies(db, options));
  io::TablePrinter table({"attribute a", "attribute b", "chi2", "dof",
                          "p-value", "Cramer V", "dominant cells",
                          "interest"});
  for (const CategoricalDependency& dep : deps) {
    const auto& a = db.attribute(dep.attribute_a);
    const auto& b = db.attribute(dep.attribute_b);
    table.AddRow({a.name, b.name, io::FormatDouble(dep.chi_squared, 2),
                  std::to_string(dep.dof),
                  io::FormatDouble(dep.p_value, 6),
                  io::FormatDouble(dep.cramers_v, 3),
                  a.categories[dep.dominant_category_a] + " x " +
                      b.categories[dep.dominant_category_b],
                  io::FormatDouble(dep.dominant_interest, 3)});
  }
  table.Print(std::cout);
  std::cout << deps.size() << " significant dependencies over "
            << db.num_rows() << " rows\n";
  return Status::OK();
}

Status RunCheck(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("check: missing transaction file");
  }
  // The permutation test shuffles one contiguous row store and needs no
  // shards or index, so the file is read straight into one.
  const std::string& path = flags.positional()[1];
  StatusOr<TransactionDatabase> loaded = Status::Internal("not loaded");
  if (flags.GetBool("names", false)) {
    CORRMINE_ASSIGN_OR_RETURN(std::string text, io::ReadFileToString(path));
    loaded = io::ParseNamedTransactions(text);
  } else {
    loaded = io::LoadTransactionFile(path);
  }
  CORRMINE_RETURN_NOT_OK(loaded.status());
  const TransactionDatabase& db = *loaded;
  std::string items_arg = flags.GetString("items", "");
  if (items_arg.empty()) {
    return Status::InvalidArgument("check: --items A,B[,C...] is required");
  }
  std::vector<ItemId> items;
  for (std::string_view token : SplitString(items_arg, ",")) {
    CORRMINE_ASSIGN_OR_RETURN(uint64_t id, ParseUint64(TrimString(token)));
    if (id >= db.num_items()) {
      return Status::OutOfRange("item id " + std::to_string(id) +
                                " outside the database's item space");
    }
    items.push_back(static_cast<ItemId>(id));
  }
  Itemset s(std::move(items));

  stats::PermutationTestOptions options;
  CORRMINE_ASSIGN_OR_RETURN(options.rounds,
                            GetIntFlag(flags, "rounds", 1000));
  CORRMINE_ASSIGN_OR_RETURN(
      auto result, stats::PermutationIndependenceTest(db, s, options));
  std::cout << "itemset " << s.ToString() << " over " << db.num_baskets()
            << " baskets\n"
            << "  chi-squared statistic : " << result.observed_statistic
            << "\n"
            << "  asymptotic p-value    : " << result.chi_squared_p_value
            << "\n"
            << "  exact (MC) p-value    : " << result.p_value << "  ("
            << options.rounds << " rounds)\n";
  return Status::OK();
}

Status RunRules(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("rules: missing transaction file");
  }
  CORRMINE_ASSIGN_OR_RETURN(SessionOptions session_options,
                            SessionOptionsFromFlags(flags));
  CORRMINE_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::Open(flags.positional()[1], session_options));
  if (session.num_baskets() == 0) {
    return Status::InvalidArgument("no baskets in input");
  }

  std::vector<FrequentItemset> frequent;
  std::string algo = flags.GetString("algo", "apriori");
  if (algo == "apriori") {
    AprioriOptions apriori;
    CORRMINE_ASSIGN_OR_RETURN(apriori.min_support_fraction,
                              flags.GetDouble("min-support", 0.01));
    CORRMINE_ASSIGN_OR_RETURN(frequent, session.MineFrequent(apriori));
  } else if (algo == "eclat") {
    EclatOptions eclat;
    CORRMINE_ASSIGN_OR_RETURN(eclat.min_support_fraction,
                              flags.GetDouble("min-support", 0.01));
    CORRMINE_ASSIGN_OR_RETURN(frequent, session.MineFrequentEclat(eclat));
  } else {
    return Status::InvalidArgument("unknown --algo: " + algo);
  }

  RuleOptions rule_options;
  CORRMINE_ASSIGN_OR_RETURN(rule_options.min_confidence,
                            flags.GetDouble("min-confidence", 0.5));
  CORRMINE_ASSIGN_OR_RETURN(
      auto rules, GenerateAssociationRules(frequent, session.num_baskets(),
                                           rule_options));

  io::TablePrinter table({"antecedent", "consequent", "support",
                          "confidence"});
  for (const AssociationRule& rule : rules) {
    table.AddRow({rule.antecedent.ToString(), rule.consequent.ToString(),
                  io::FormatDouble(rule.support, 4),
                  io::FormatDouble(rule.confidence, 3)});
  }
  table.Print(std::cout);
  std::cout << frequent.size() << " frequent itemsets, " << rules.size()
            << " rules\n";
  return Status::OK();
}

Status RunIngest(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("ingest: missing transaction file");
  }
  const std::string path = flags.positional()[1];
  const std::string append_path = flags.GetString("append", "");
  CORRMINE_ASSIGN_OR_RETURN(uint64_t retire, flags.GetUint64("retire", 0));

  if (!append_path.empty()) {
    // Binary chunks can only follow a binary base; a text base is converted
    // in place first (its rows become chunk 0).
    auto format_or = io::DetectTransactionFileFormat(path);
    if (format_or.ok() &&
        *format_or == io::TransactionFileFormat::kText) {
      CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase base,
                                io::LoadTransactionFile(path));
      CORRMINE_RETURN_NOT_OK(io::WriteBinaryTransactionFile(base, path));
      std::cout << "converted text base to binary (" << base.num_baskets()
                << " baskets)\n";
    }
    CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase delta,
                              io::LoadTransactionFile(append_path));
    if (delta.num_baskets() == 0) {
      return Status::InvalidArgument("ingest: delta file has no baskets");
    }
    CORRMINE_RETURN_NOT_OK(io::AppendBinaryTransactionChunk(delta, path));
    std::cout << "appended " << delta.num_baskets() << " baskets over "
              << delta.num_items() << " items\n";
  }
  if (retire > 0) {
    CORRMINE_RETURN_NOT_OK(io::RetireOldestTransactionChunks(
        path, static_cast<size_t>(retire)));
    std::cout << "retired " << retire
              << (retire == 1 ? " oldest chunk\n" : " oldest chunks\n");
  }

  CORRMINE_ASSIGN_OR_RETURN(io::TransactionFileFormat format,
                            io::DetectTransactionFileFormat(path));
  if (format == io::TransactionFileFormat::kText) {
    CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase db,
                              io::LoadTransactionFile(path));
    std::cout << path << ": text format, " << db.num_baskets()
              << " baskets over " << db.num_items()
              << " items (ingest --append converts to chunked binary)\n";
    return Status::OK();
  }
  CORRMINE_ASSIGN_OR_RETURN(std::string bytes, io::ReadFileToString(path));
  CORRMINE_ASSIGN_OR_RETURN(auto chunks, io::ListTransactionChunks(bytes));
  uint64_t total_baskets = 0;
  ItemId item_space = 0;
  for (const io::TransactionChunkInfo& chunk : chunks) {
    total_baskets += chunk.num_baskets;
    item_space = std::max(item_space, chunk.num_items);
  }
  std::cout << path << ": " << chunks.size() << " chunk"
            << (chunks.size() == 1 ? "" : "s") << ", " << total_baskets
            << " baskets over " << item_space << " items\n";
  for (size_t i = 0; i < chunks.size(); ++i) {
    std::cout << "  chunk " << i << ": " << chunks[i].num_baskets
              << " baskets, " << chunks[i].num_items << " items, "
              << chunks[i].size << " bytes at offset " << chunks[i].offset
              << "\n";
  }
  return Status::OK();
}

Status RunGenerate(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    return Status::InvalidArgument("generate: missing dataset kind");
  }
  std::string kind = flags.positional()[1];
  std::string out = flags.GetString("out", kind + ".txt");
  CORRMINE_ASSIGN_OR_RETURN(uint64_t seed, flags.GetUint64("seed", 1997));
  CORRMINE_ASSIGN_OR_RETURN(uint64_t baskets,
                            flags.GetUint64("baskets", 0));

  TransactionDatabase db(1);
  if (kind == "quest") {
    datagen::QuestOptions options;
    options.seed = seed;
    if (baskets > 0) options.num_transactions = baskets;
    CORRMINE_ASSIGN_OR_RETURN(db, datagen::GenerateQuestData(options));
  } else if (kind == "census") {
    datagen::CensusOptions options;
    options.seed = seed;
    if (baskets > 0) options.num_persons = baskets;
    CORRMINE_ASSIGN_OR_RETURN(db, datagen::GenerateCensusData(options));
  } else if (kind == "text") {
    datagen::TextCorpusOptions options;
    options.seed = seed;
    if (baskets > 0) {
      options.num_documents = static_cast<uint32_t>(baskets);
    }
    CORRMINE_ASSIGN_OR_RETURN(auto corpus,
                              datagen::GenerateTextCorpus(options));
    db = std::move(corpus.database);
  } else {
    return Status::InvalidArgument("unknown dataset kind: " + kind);
  }
  std::string format = flags.GetString("format", "text");
  if (format == "binary") {
    CORRMINE_RETURN_NOT_OK(io::WriteBinaryTransactionFile(db, out));
  } else if (format == "text") {
    CORRMINE_RETURN_NOT_OK(io::WriteTransactionFile(db, out));
  } else {
    return Status::InvalidArgument("unknown --format: " + format);
  }
  std::cout << "wrote " << db.num_baskets() << " baskets over "
            << db.num_items() << " items to " << out << " (" << format
            << ")\n";
  return Status::OK();
}

/// A command, its entry point, and every flag it reads. Main rejects any
/// other flag (beyond the global --kernel and --help) before running it, so
/// a misspelled flag fails loudly instead of leaving its default in place.
struct Command {
  std::string_view name;
  Status (*run)(const FlagParser&);
  std::vector<std::string_view> flags;
};

const Command kCommands[] = {
    {"mine",
     RunMine,
     {"names", "support-count", "cell-fraction", "confidence-level",
      "max-level", "min-expected", "threads", "shards", "out-of-core",
      "memory-budget", "partition-budget", "spill-dir", "keep-spill", "algo",
      "walks", "resume-from", "append", "border-out", "out", "stats-json",
      "stats", "trace-out", "pmu", "profile-out", "progress", "report",
      "fdr"}},
    {"check", RunCheck, {"items", "rounds", "names"}},
    {"dependencies", RunDependencies, {"confidence-level", "min-expected"}},
    {"rules",
     RunRules,
     {"min-support", "min-confidence", "algo", "threads", "shards", "names"}},
    {"ingest", RunIngest, {"append", "retire"}},
    {"generate", RunGenerate, {"out", "seed", "baskets", "format"}},
};

int Main(int argc, const char* const* argv) {
  auto flags_or = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status().ToString() << "\n";
    return 2;
  }
  const FlagParser& flags = *flags_or;
  if (flags.GetBool("help", false) || flags.positional().empty()) {
    std::cout << kUsage;
    return flags.positional().empty() && !flags.GetBool("help", false) ? 2
                                                                       : 0;
  }
  const std::string& command = flags.positional()[0];
  const Command* entry =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return c.name == command; });
  if (entry == std::end(kCommands)) {
    std::cerr << "unknown command: " << command << "\n" << kUsage;
    return 2;
  }
  for (const std::string& name : flags.FlagNames()) {
    if (name != "kernel" && name != "help" &&
        std::find(entry->flags.begin(), entry->flags.end(), name) ==
            entry->flags.end()) {
      std::cerr << command << ": unknown flag --" << name
                << " (see --help)\n";
      return 2;
    }
  }
  // Resolve the counting kernel before any command touches a bitmap.
  const std::string kernel = flags.GetString("kernel", "");
  if (!kernel.empty()) {
    Status kernel_status = SetActiveKernel(kernel);
    if (!kernel_status.ok()) {
      std::cerr << kernel_status.ToString() << "\n";
      return 2;
    }
  }
  Status status = Status::OK();
  // Running out of memory ends the command with a Status, never an abort:
  // regions report std::bad_alloc as ResourceExhausted themselves, and
  // this catches it everywhere else (loading, index build, output, a pool
  // that cannot start its threads).
  try {
    status = entry->run(flags);
  } catch (const std::bad_alloc&) {
    status = Status::ResourceExhausted("out of memory running " + command);
  } catch (const std::system_error& e) {
    // A worker thread that could not start (no address space left for its
    // stack) is the same shortage; anything else is a bug.
    const std::string what = "running " + command + ": " + e.what();
    status = e.code() == std::errc::resource_unavailable_try_again
                 ? Status::ResourceExhausted(what)
                 : Status::Internal(what);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace corrmine

int main(int argc, char** argv) { return corrmine::Main(argc, argv); }
