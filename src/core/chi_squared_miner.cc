#include "core/chi_squared_miner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/phase.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "hash/itemset_set.h"
#include "itemset/kernels.h"

namespace corrmine {

uint64_t BinomialCount(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  unsigned __int128 result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
    if (result > UINT64_MAX) return UINT64_MAX;
  }
  return static_cast<uint64_t>(result);
}

namespace {

Status ValidateOptions(const MinerOptions& options) {
  if (!(options.confidence_level > 0.0 && options.confidence_level < 1.0)) {
    return Status::InvalidArgument("confidence_level must be in (0,1)");
  }
  if (!(options.support.cell_fraction > 0.0 &&
        options.support.cell_fraction <= 1.0)) {
    return Status::InvalidArgument("support cell_fraction must be in (0,1]");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (options.max_level < 0) {
    return Status::InvalidArgument("max_level must be >= 0");
  }
  return Status::OK();
}

/// The Step-8 prune for one join of two NOTSIG run members: every k-subset
/// of the (k+1)-item `joined` must be NOTSIG. The subsets missing the last
/// or second-to-last item are the two join parents themselves, so only the
/// others are probed — from a stack buffer, with no Itemset built.
bool AllSubsetsNotSig(std::span<const ItemId> joined,
                      const hash::ItemsetPerfectSet& not_sig_set) {
  const size_t size = joined.size();
  ItemId subset[ContingencyTable::kMaxItems];
  for (size_t skip = 0; skip + 2 < size; ++skip) {
    size_t len = 0;
    for (size_t j = 0; j < size; ++j) {
      if (j != skip) subset[len++] = joined[j];
    }
    if (!not_sig_set.Find({subset, len}).has_value()) return false;
  }
  return true;
}

/// Moves per-chunk outputs, in chunk order, into one vector.
std::vector<Itemset> Concatenate(std::vector<std::vector<Itemset>>& chunks) {
  size_t total = 0;
  for (const std::vector<Itemset>& chunk : chunks) total += chunk.size();
  std::vector<Itemset> out;
  out.reserve(total);
  for (std::vector<Itemset>& chunk : chunks) {
    std::move(chunk.begin(), chunk.end(), std::back_inserter(out));
  }
  return out;
}

/// Figure 1, Step 8: the level-(k+1) candidates from level k's complete
/// NOTSIG list. The list is lexicographically sorted by construction
/// (candidates arrive in lex order and the fan-in appends in order), so
/// join partners sharing a (k-1)-prefix form contiguous runs, and every
/// pair within a run unions to k+1 items — exactly the pairs the sequential
/// join loop emits. Runs are joined and pruned in parallel: each pair is
/// built in a stack buffer and becomes an Itemset only if every k-subset is
/// NOTSIG. Concatenating the runs in order reproduces the sequential
/// candidate stream byte for byte.
Status GenerateCandidates(const hash::ItemsetPerfectSet& not_sig, size_t k,
                          ThreadPool* pool, std::vector<Itemset>* out) {
  const std::vector<Itemset>& members = not_sig.itemsets();
  // [begin, end) of every run with at least one pair.
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t begin = 0, end = 0; begin < members.size(); begin = end) {
    end = begin + 1;
    while (end < members.size() &&
           std::equal(members[begin].begin(), members[begin].begin() + k - 1,
                      members[end].begin())) {
      ++end;
    }
    if (end - begin >= 2) runs.emplace_back(begin, end);
  }
  std::vector<std::vector<Itemset>> joins(runs.size());
  CORRMINE_RETURN_NOT_OK(ParallelFor(
      pool, runs.size(), 1, [&](size_t begin, size_t end) -> Status {
        ItemId joined[ContingencyTable::kMaxItems];
        for (size_t r = begin; r < end; ++r) {
          const auto [first, last] = runs[r];
          for (size_t i = first; i < last; ++i) {
            std::copy(members[i].begin(), members[i].end(), joined);
            for (size_t j = i + 1; j < last; ++j) {
              joined[k] = members[j].item(k - 1);
              if (AllSubsetsNotSig({joined, k + 1}, not_sig)) {
                joins[r].emplace_back(
                    std::vector<ItemId>(joined, joined + k + 1));
              }
            }
          }
        }
        return Status::OK();
      }));
  *out = Concatenate(joins);
  return Status::OK();
}

/// One completed level's NOTSIG members and their all-present counts:
/// counts[i] = O(members.itemsets()[i]). Figure 1 admits a level-k
/// candidate only when every (k-1)-subset is NOTSIG, recursively, so every
/// proper subset of a candidate with at least two items is a member of its
/// own level's table, counted when that level was mined.
struct LevelTable {
  hash::ItemsetPerfectSet members;
  std::vector<uint64_t> counts;
};

/// One evaluated candidate, parked in an index-addressed slot so batches
/// evaluated out of order merge back deterministically.
struct EvalSlot {
  enum class Kind : uint8_t { kDiscard, kSig, kNotSig };
  Kind kind = Kind::kDiscard;
  ChiSquaredResult chi2;      // kSig only.
  CellInterest major;         // kSig only.
  /// §3.3 low-expectation cells excluded from this candidate's statistic
  /// (recorded for kSig and kNotSig; discards never reach the test).
  uint64_t masked_cells = 0;
};

/// Counter handles for one mining run, resolved once so the per-level
/// fan-in pays a handful of sharded adds, not registry lookups.
struct MinerCounters {
  explicit MinerCounters(MetricsRegistry* registry)
      : candidates(registry->GetCounter("miner.candidates")),
        discards(registry->GetCounter("miner.discards_cell_support")),
        chi2_tests(registry->GetCounter("miner.chi2_tests")),
        masked_cells(registry->GetCounter("miner.masked_cells")),
        sig(registry->GetCounter("miner.sig")),
        notsig(registry->GetCounter("miner.notsig")),
        levels(registry->GetCounter("miner.levels")) {}

  void AddLevel(const LevelStats& stats) const {
    candidates->Add(stats.candidates);
    discards->Add(stats.discards);
    chi2_tests->Add(stats.chi2_tests);
    masked_cells->Add(stats.masked_cells);
    sig->Add(stats.significant);
    notsig->Add(stats.not_significant);
    levels->Add();
  }

  Counter* candidates;
  Counter* discards;
  Counter* chi2_tests;
  Counter* masked_cells;
  Counter* sig;
  Counter* notsig;
  Counter* levels;
};

/// Chunk granularity of candidate evaluation, claimed from the pipeline's
/// shared cursor. Each candidate is a 2^k-cell table assembly plus a
/// chi-squared test, so even small chunks are meaty.
constexpr size_t kEvalGrain = 16;

/// Fills `all_present` (2^k entries) for candidate `s`: n for the empty
/// mask, the item counts for singletons, the level tables for proper
/// subsets of size 2..k-1, and `count` — the candidate's own O(S) from this
/// level's batch — for the full mask.
Status AssembleAllPresent(const Itemset& s, uint64_t count, uint64_t n,
                          const std::vector<uint64_t>& item_counts,
                          const std::vector<LevelTable>& tables,
                          std::span<uint64_t> all_present) {
  const size_t k = s.size();
  const uint32_t full = (uint32_t{1} << k) - 1;
  all_present[0] = n;
  all_present[full] = count;
  ItemId subset[ContingencyTable::kMaxItems];
  for (uint32_t m = 1; m < full; ++m) {
    size_t len = 0;
    for (size_t j = 0; j < k; ++j) {
      if ((m >> j) & 1) subset[len++] = s.item(j);
    }
    if (len == 1) {
      all_present[m] = item_counts[subset[0]];
      continue;
    }
    const LevelTable& table = tables[len - 2];
    std::optional<size_t> index = table.members.Find({subset, len});
    if (!index.has_value()) {
      return Status::Internal(
          "candidate " + s.ToString() + " has a proper subset of size " +
          std::to_string(len) + " missing from the level-" +
          std::to_string(len) + " NOTSIG table");
    }
    all_present[m] = table.counts[*index];
  }
  return Status::OK();
}

}  // namespace

StatusOr<MiningResult> MineCorrelations(const CountProvider& provider,
                                        ItemId num_items,
                                        const MinerOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateOptions(options));
  if (provider.num_baskets() == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }
  MiningResult result;

  MetricsRegistry& registry =
      options.metrics ? *options.metrics : MetricsRegistry::Global();
  registry.GetCounter("miner.runs")->Add();
  MinerCounters counters(&registry);
  Phase run_phase(registry, "miner.mine", -1, -1,
                  static_cast<int64_t>(num_items));
  // Which counting kernel served this run, as a trace marker (value =
  // KernelIsa). Deliberately kept out of the deterministic stats — the
  // kernel is machine-dependent while the counts it produces are not.
  TraceInstant("kernel.selected", -1, -1,
               static_cast<int64_t>(ActiveKernels().isa));

  // Pool ownership: one pool per mining run, reused across levels — unless
  // the caller (typically a MiningSession) lends one, in which case it is
  // borrowed for the duration of the call. The calling thread participates
  // in every parallel region, so an owned pool of (threads - 1) workers
  // yields `threads` concurrent evaluators.
  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads - 1);
    pool = owned_pool.get();
  }

  // Step 1: count O(i) for every item — one batch over the singletons.
  uint64_t n = provider.num_baskets();
  std::vector<Itemset> singletons;
  singletons.reserve(num_items);
  for (ItemId i = 0; i < num_items; ++i) singletons.push_back(Itemset{i});
  std::vector<uint64_t> item_counts(num_items);
  provider.CountAllPresentBatch(singletons, item_counts, pool);

  const int max_level = options.max_level > 0
                            ? std::min(options.max_level,
                                       ContingencyTable::kMaxItems)
                            : ContingencyTable::kMaxItems;

  // Step 3: level-2 candidates via level-1 pruning, morsel-parallel over
  // the first-item axis (the inner loop shrinks as `a` grows, so small
  // chunks claimed from the shared cursor even out the triangle). Per-chunk
  // outputs are
  // concatenated in chunk order — the sequential (a, b) enumeration,
  // reproduced.
  std::vector<Itemset> cand;
  {
    constexpr size_t kPairGenGrain = 16;
    const size_t num_rows = num_items;
    const size_t num_gen_chunks =
        num_rows == 0 ? 0 : (num_rows + kPairGenGrain - 1) / kPairGenGrain;
    std::vector<std::vector<Itemset>> gen_chunks(num_gen_chunks);
    CORRMINE_RETURN_NOT_OK(ParallelFor(
        pool, num_rows, kPairGenGrain,
        [&](size_t begin, size_t end) -> Status {
          std::vector<Itemset>& out = gen_chunks[begin / kPairGenGrain];
          for (size_t a = begin; a < end; ++a) {
            for (ItemId b = static_cast<ItemId>(a) + 1; b < num_items; ++b) {
              if (PairPassesLevelOne(item_counts[a], item_counts[b], n,
                                     options.support, options.level_one)) {
                out.push_back(Itemset{static_cast<ItemId>(a), b});
              }
            }
          }
          return Status::OK();
        }));
    cand = Concatenate(gen_chunks);
  }

  // The NOTSIG members of every completed level with their counts
  // (tables[j - 2] holds level j). A level's table is appended only once
  // its pipeline has drained and never changes afterwards, so pool workers
  // evaluating level k read levels 2..k-1 while the ordered consumer fills
  // level k's table on the side. SIG is appended to the output as
  // discovered.
  std::vector<LevelTable> tables;

  for (int level = 2; level <= max_level; ++level) {
    Phase level_phase(registry, "miner.level", level, -1,
                      static_cast<int64_t>(cand.size()));
    LevelStats stats;
    stats.level = level;
    stats.possible_itemsets = BinomialCount(num_items, level);

    LevelTable next;
    // Skip NOTSIG bookkeeping when this is the last level we will visit —
    // nothing consumes it, and on dense data it is the memory high-water
    // mark — unless the caller asked for the frontier.
    const bool keep_not_sig = level < max_level || options.keep_frontier;
    // Whether another level can follow: only then is Step 8 run.
    const bool gen_next = level < max_level;
    std::vector<Itemset> next_cand;
    // This level's evaluate and generate durations for the heartbeat.
    uint64_t evaluate_ns = 0;
    uint64_t generate_ns = 0;

    // Steps 6-7, batched per level: CAND is materialized whole and counted
    // by ONE CountAllPresentBatch, one query per candidate in the join's
    // (k-1)-prefix-run order. Every other entry of a candidate's 2^k
    // all-present vector is already known: n, the item counts, and the
    // counts of its proper subsets in the lower levels' tables. Candidates
    // then stream through an ordered evaluation pipeline (support test,
    // then chi-squared, into index-addressed slots) whose single-threaded
    // consumer commits verdicts *in stream order* while later chunks are
    // still evaluating — so the output is byte-identical whatever the
    // thread or shard count, including the inline single-threaded path.
    //
    // Materializing CAND buys the single-batch contract that sharded and
    // remote providers need (one round trip per level, not one per
    // candidate); CAND at level k is bounded by the NOTSIG join, which
    // pruning keeps far below the raw C(|I|, k) lattice width.
    if (!cand.empty()) {
      TraceInstant("miner.candidates", level, -1,
                   static_cast<int64_t>(cand.size()));
      std::vector<uint64_t> cand_counts(cand.size());
      {
        Phase count_phase(registry, "miner.count_batch", level, -1,
                          static_cast<int64_t>(cand.size()));
        provider.CountAllPresentBatch(cand, cand_counts, pool);
      }

      std::vector<EvalSlot> slots(cand.size());
      {
        Phase eval_phase(registry, "miner.evaluate", level, -1,
                         static_cast<int64_t>(cand.size()));
        // Per-slot evaluation scratch: the 2^k all-present vector each chunk
        // assembles tables from, sized once per level and reused across
        // every chunk that slot runs.
        const size_t num_cells = size_t{1} << level;
        const size_t eval_slots =
            OrderedPipelineSlotBound(pool, cand.size(), kEvalGrain);
        std::vector<std::vector<uint64_t>> eval_scratch(
            eval_slots, std::vector<uint64_t>(num_cells));
        CORRMINE_RETURN_NOT_OK(OrderedPipeline(
            pool, cand.size(), kEvalGrain,
            [&](size_t slot, size_t begin, size_t end) -> Status {
              std::vector<uint64_t>& all_present = eval_scratch[slot];
              for (size_t i = begin; i < end; ++i) {
                CORRMINE_RETURN_NOT_OK(AssembleAllPresent(
                    cand[i], cand_counts[i], n, item_counts, tables,
                    all_present));
                CORRMINE_ASSIGN_OR_RETURN(
                    ContingencyTable table,
                    ContingencyTable::FromAllPresentCounts(cand[i],
                                                           all_present));
                if (!HasCellSupport(table, options.support)) {
                  slots[i].kind = EvalSlot::Kind::kDiscard;
                  continue;
                }
                ChiSquaredResult chi2 =
                    ComputeChiSquared(table, options.chi2);
                slots[i].masked_cells = chi2.validity.masked_cells;
                if (chi2.SignificantAt(options.confidence_level)) {
                  slots[i].kind = EvalSlot::Kind::kSig;
                  slots[i].chi2 = chi2;
                  slots[i].major = MajorDependenceCell(table);
                } else {
                  slots[i].kind = EvalSlot::Kind::kNotSig;
                }
              }
              return Status::OK();
            },
            // Deterministic fan-in: the ordered consumer walks the slots in
            // candidate order, so SIG/NOTSIG/stat updates match the
            // sequential history exactly.
            [&](size_t begin, size_t end) -> Status {
              for (size_t i = begin; i < end; ++i) {
                ++stats.candidates;
                switch (slots[i].kind) {
                  case EvalSlot::Kind::kDiscard:
                    ++stats.discards;
                    break;
                  case EvalSlot::Kind::kSig:
                    ++stats.significant;
                    ++stats.chi2_tests;
                    stats.masked_cells += slots[i].masked_cells;
                    result.significant.push_back(CorrelationRule{
                        std::move(cand[i]), slots[i].chi2, slots[i].major});
                    break;
                  case EvalSlot::Kind::kNotSig:
                    ++stats.not_significant;
                    ++stats.chi2_tests;
                    stats.masked_cells += slots[i].masked_cells;
                    if (keep_not_sig) {
                      next.members.Insert(cand[i]);
                      next.counts.push_back(cand_counts[i]);
                    }
                    break;
                }
              }
              return Status::OK();
            }));
        evaluate_ns = eval_phase.Stop();
      }

      // Step 8 needs the level's complete NOTSIG list, so it runs once the
      // pipeline has drained.
      if (gen_next) {
        Phase gen_phase(registry, "miner.generate", level, -1,
                        static_cast<int64_t>(next.members.size()));
        CORRMINE_RETURN_NOT_OK(GenerateCandidates(
            next.members, static_cast<size_t>(level), pool, &next_cand));
        generate_ns = gen_phase.Stop();
      }
    }

    bool exhausted = stats.candidates == 0;
    if (!exhausted) {
      result.levels.push_back(stats);
      counters.AddLevel(stats);
    }
    // Level-boundary peak-RSS sample: the gauge is last-write-wins and
    // ru_maxrss is monotone, so this tracks *when* the peak grew (visible
    // per level in --trace-out via the dump, not just at session end).
    registry.GetGauge("mem.peak_rss_bytes")
        ->Set(static_cast<int64_t>(PeakRssBytes()));

    if (options.progress && !exhausted) {
      MinerProgress heartbeat;
      heartbeat.level = level;
      heartbeat.candidates = stats.candidates;
      heartbeat.frontier = next.members.size();
      heartbeat.significant_total = result.significant.size();
      heartbeat.evaluate_ns = evaluate_ns;
      heartbeat.generate_ns = generate_ns;
      options.progress(heartbeat);
    }
    if (exhausted) break;
    tables.push_back(std::move(next));
    cand = std::move(next_cand);
    if (tables.back().members.size() < 2 || level == max_level) break;
  }

  if (options.keep_frontier && !tables.empty()) {
    result.frontier = tables.back().members.itemsets();
  }
  return result;
}

}  // namespace corrmine
