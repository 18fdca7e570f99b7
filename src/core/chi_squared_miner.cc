#include "core/chi_squared_miner.h"

#include <algorithm>
#include <bit>
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
#include "hash/itemset_table.h"
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

/// Moves per-chunk outputs, in chunk order, into one vector.
template <typename T>
std::vector<T> Concatenate(std::vector<std::vector<T>>& chunks) {
  size_t total = 0;
  for (const std::vector<T>& chunk : chunks) total += chunk.size();
  std::vector<T> out;
  out.reserve(total);
  for (std::vector<T>& chunk : chunks) {
    std::move(chunk.begin(), chunk.end(), std::back_inserter(out));
  }
  return out;
}

/// One completed level k's NOTSIG members with their all-present counts:
/// counts[i] = O(members.member(i)). From level 3 on, each member also keeps
/// the indexes Step 8 carried for it: subsets[i * k + j] is the index, in
/// level k - 1's table, of member i without its item j. Figure 1 admits a
/// level-k candidate only when every (k-1)-subset is NOTSIG, recursively,
/// so every proper subset of a candidate with at least two items is a
/// member of its own level's table, reachable down this chain.
struct LevelTable {
  hash::ItemsetTable members;
  std::vector<uint64_t> counts;
  std::vector<uint32_t> subsets;

  uint64_t MemoryBytes() const {
    return members.MemoryBytes() + counts.capacity() * sizeof(uint64_t) +
           subsets.capacity() * sizeof(uint32_t);
  }
};

/// One level's candidates, in the join's (k-1)-prefix-run order: the
/// itemsets the count batch takes and, from level 3 on, the k subset
/// indexes Step 8 found for each (laid out as LevelTable::subsets).
struct Candidates {
  std::vector<Itemset> itemsets;
  std::vector<uint32_t> subsets;
};

/// How many join pairs ahead Step 8 prefetches its first probe's slot.
constexpr uint32_t kProbeLookahead = 8;

/// Figure 1, Step 8: the level-(k+1) candidates from level k's complete
/// NOTSIG table. The table is lexicographically sorted by construction
/// (candidates arrive in lex order and the fan-in appends in order), so
/// join partners sharing a (k-1)-prefix form contiguous runs, and every
/// pair within a run unions to k+1 items — exactly the pairs the sequential
/// join loop emits. Runs are joined and pruned in parallel straight from
/// the table's arena: each pair is built in a stack buffer, and the subsets
/// missing its last or second-to-last item are the two join parents, so
/// only the other k - 1 are probed. A pair becomes a candidate only if
/// every probe hits, carrying all k + 1 subset indexes. Concatenating the
/// runs in order reproduces the sequential candidate stream byte for byte.
Status GenerateCandidates(const LevelTable& level, size_t k, ThreadPool* pool,
                          Candidates* out) {
  const hash::ItemsetTable& members = level.members;
  // [begin, end) of every run with at least one pair.
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  for (size_t begin = 0, end = 0; begin < members.size(); begin = end) {
    const std::span<const ItemId> first = members.member(begin);
    end = begin + 1;
    while (end < members.size() &&
           std::equal(first.begin(), first.begin() + k - 1,
                      members.member(end).begin())) {
      ++end;
    }
    if (end - begin >= 2) {
      runs.emplace_back(static_cast<uint32_t>(begin),
                        static_cast<uint32_t>(end));
    }
  }
  std::vector<std::vector<Itemset>> joins(runs.size());
  std::vector<std::vector<uint32_t>> join_subsets(runs.size());
  CORRMINE_RETURN_NOT_OK(ParallelFor(
      pool, runs.size(), 1, [&](size_t begin, size_t end) -> Status {
        ItemId joined[ContingencyTable::kMaxItems];
        ItemId subset[ContingencyTable::kMaxItems];
        uint32_t found[ContingencyTable::kMaxItems];
        ItemId ahead[ContingencyTable::kMaxItems];
        for (size_t r = begin; r < end; ++r) {
          const auto [first, last] = runs[r];
          for (uint32_t i = first; i < last; ++i) {
            std::ranges::copy(members.member(i), joined);
            found[k] = i;
            // Each pair's first probe (the subset without item 0) is
            // prefetched kProbeLookahead pairs ahead, so the table's cache
            // misses overlap instead of queueing one per pair.
            std::copy(joined + 1, joined + k, ahead);
            auto prefetch = [&](uint32_t j) {
              ahead[k - 1] = members.member(j)[k - 1];
              members.Prefetch({ahead, k});
            };
            const uint32_t primed = std::min(last, i + 1 + kProbeLookahead);
            for (uint32_t j = i + 1; j < primed; ++j) prefetch(j);
            for (uint32_t j = i + 1; j < last; ++j) {
              if (j + kProbeLookahead < last) prefetch(j + kProbeLookahead);
              joined[k] = members.member(j)[k - 1];
              found[k - 1] = j;
              bool all_not_sig = true;
              for (size_t skip = 0; skip + 1 < k && all_not_sig; ++skip) {
                std::copy(joined, joined + skip, subset);
                std::copy(joined + skip + 1, joined + k + 1, subset + skip);
                found[skip] = members.Find({subset, k});
                all_not_sig = found[skip] != hash::ItemsetTable::kAbsent;
              }
              if (!all_not_sig) continue;
              joins[r].emplace_back(
                  std::vector<ItemId>(joined, joined + k + 1));
              join_subsets[r].insert(join_subsets[r].end(), found,
                                     found + k + 1);
            }
          }
        }
        return Status::OK();
      }));
  out->itemsets = Concatenate(joins);
  out->subsets = Concatenate(join_subsets);
  return Status::OK();
}

/// A candidate's verdict, one byte per candidate; SIG payloads wait in
/// their evaluation chunk's EvalChunk.
enum class Verdict : uint8_t { kDiscard, kSig, kNotSig };

/// What a SIG rule carries beyond its itemset.
struct SigPayload {
  ChiSquaredResult chi2;
  CellInterest major;
};

/// One evaluation chunk's output beside its verdicts, so chunks evaluated
/// out of order merge back deterministically: the SIG payloads in
/// candidate order, and the §3.3 low-expectation cells its tested
/// candidates excluded from their statistics (discards never reach the
/// test).
struct EvalChunk {
  uint64_t masked_cells = 0;
  std::vector<SigPayload> sig;
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
/// mask, the item counts for singletons, `count` — the candidate's own O(S)
/// from this level's batch — for the full mask, and the level tables'
/// counts for the proper subsets of size 2..k-1. `subsets` holds the k
/// indexes Step 8 carried for `s` (empty at level 2); a smaller subset's
/// index is read off the member one item larger, walking the chain down
/// with no hashing. `index` (2^k entries) is the walk's scratch.
void AssembleAllPresent(const Itemset& s, uint64_t count, uint64_t n,
                        std::span<const uint32_t> subsets,
                        const std::vector<uint64_t>& item_counts,
                        const std::vector<LevelTable>& tables,
                        std::span<uint32_t> index,
                        std::span<uint64_t> all_present) {
  const size_t k = s.size();
  const uint32_t full = (uint32_t{1} << k) - 1;
  all_present[0] = n;
  all_present[full] = count;
  for (size_t j = 0; j < k; ++j) {
    all_present[uint32_t{1} << j] = item_counts[s.item(j)];
  }
  for (size_t j = 0; j < subsets.size(); ++j) {
    index[full ^ (uint32_t{1} << j)] = subsets[j];
  }
  // Descending masks visit every parent (one item larger) before its child.
  for (uint32_t m = full - 1; m > 2; --m) {
    const int len = std::popcount(m);
    if (len < 2) continue;
    if (len + 1 < static_cast<int>(k)) {
      // Step up through the highest absent item q: the parent's member
      // without its item of rank q is this subset.
      const int q = std::bit_width(full & ~m) - 1;
      const uint32_t rank = std::popcount(m & ((uint32_t{1} << q) - 1));
      index[m] = tables[len - 1].subsets[index[m | (uint32_t{1} << q)] *
                                             static_cast<uint32_t>(len + 1) +
                                         rank];
    }
    all_present[m] = tables[len - 2].counts[index[m]];
  }
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

  MetricsRegistry& registry = MetricsRegistry::Global();
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
  Candidates cand;
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
    cand.itemsets = Concatenate(gen_chunks);
  }

  // The NOTSIG members of every completed level with their counts
  // (tables[j - 2] holds level j). A level's table is built only once its
  // pipeline has drained and never changes afterwards, so pool workers
  // evaluating level k read levels 2..k-1 while the ordered consumer
  // appends level k's members on the side. SIG is appended to the output
  // as discovered.
  std::vector<LevelTable> tables;
  // Byte sizes behind the mem.miner_* gauges, each the peak over levels.
  uint64_t peak_cand_bytes = 0;
  uint64_t peak_notsig_bytes = 0;
  uint64_t sig_item_bytes = 0;

  for (int level = 2; level <= max_level; ++level) {
    const size_t k = static_cast<size_t>(level);
    const size_t num_cand = cand.itemsets.size();
    Phase level_phase(registry, "miner.level", level, -1,
                      static_cast<int64_t>(num_cand));
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
    Candidates next_cand;
    // This level's evaluate and generate durations for the heartbeat.
    uint64_t evaluate_ns = 0;
    uint64_t generate_ns = 0;

    // Steps 6-7, batched per level: CAND is materialized whole and counted
    // by ONE CountAllPresentBatch, one query per candidate in the join's
    // (k-1)-prefix-run order. Every other entry of a candidate's 2^k
    // all-present vector is already known: n, the item counts, and the
    // counts of its proper subsets in the lower levels' tables, reached
    // through the subset indexes Step 8 carried. Candidates then stream
    // through an ordered evaluation pipeline (support test, then
    // chi-squared, into one verdict byte per candidate plus per-chunk SIG
    // payloads) whose single-threaded consumer commits verdicts *in stream
    // order* while later chunks are still evaluating — so the output is
    // byte-identical whatever the thread or shard count, including the
    // inline single-threaded path.
    //
    // Materializing CAND buys the single-batch contract that sharded and
    // remote providers need (one round trip per level, not one per
    // candidate); CAND at level k is bounded by the NOTSIG join, which
    // pruning keeps far below the raw C(|I|, k) lattice width.
    if (num_cand != 0) {
      TraceInstant("miner.candidates", level, -1,
                   static_cast<int64_t>(num_cand));
      std::vector<uint64_t> cand_counts(num_cand);
      {
        Phase count_phase(registry, "miner.count_batch", level, -1,
                          static_cast<int64_t>(num_cand));
        provider.CountAllPresentBatch(cand.itemsets, cand_counts, pool);
      }

      std::vector<Verdict> verdicts(num_cand);
      std::vector<EvalChunk> chunks((num_cand + kEvalGrain - 1) / kEvalGrain);
      std::vector<ItemId> not_sig_items;
      {
        Phase eval_phase(registry, "miner.evaluate", level, -1,
                         static_cast<int64_t>(num_cand));
        // Per-slot evaluation scratch: the 2^k all-present vector each chunk
        // assembles tables from and the subset-index walk behind it, sized
        // once per level and reused across every chunk that slot runs.
        const size_t num_cells = size_t{1} << level;
        const size_t eval_slots =
            OrderedPipelineSlotBound(pool, num_cand, kEvalGrain);
        std::vector<std::vector<uint64_t>> eval_scratch(
            eval_slots, std::vector<uint64_t>(num_cells));
        std::vector<std::vector<uint32_t>> index_scratch(
            eval_slots, std::vector<uint32_t>(num_cells));
        const size_t subset_stride = level > 2 ? k : 0;
        CORRMINE_RETURN_NOT_OK(OrderedPipeline(
            pool, num_cand, kEvalGrain,
            [&](size_t slot, size_t begin, size_t end) -> Status {
              EvalChunk& chunk = chunks[begin / kEvalGrain];
              for (size_t i = begin; i < end; ++i) {
                const Itemset& s = cand.itemsets[i];
                AssembleAllPresent(
                    s, cand_counts[i], n,
                    std::span<const uint32_t>(cand.subsets)
                        .subspan(i * subset_stride, subset_stride),
                    item_counts, tables, index_scratch[slot],
                    eval_scratch[slot]);
                CORRMINE_ASSIGN_OR_RETURN(
                    ContingencyTable table,
                    ContingencyTable::FromAllPresentCounts(
                        s, eval_scratch[slot]));
                if (!HasCellSupport(table, options.support)) {
                  verdicts[i] = Verdict::kDiscard;
                  continue;
                }
                ChiSquaredResult chi2 =
                    ComputeChiSquared(table, options.chi2);
                chunk.masked_cells += chi2.validity.masked_cells;
                if (chi2.SignificantAt(options.confidence_level)) {
                  verdicts[i] = Verdict::kSig;
                  chunk.sig.push_back({chi2, MajorDependenceCell(table)});
                } else {
                  verdicts[i] = Verdict::kNotSig;
                }
              }
              return Status::OK();
            },
            // Deterministic fan-in: the ordered consumer walks the verdicts
            // in candidate order, so SIG/NOTSIG/stat updates match the
            // sequential history exactly.
            [&](size_t begin, size_t end) -> Status {
              EvalChunk& chunk = chunks[begin / kEvalGrain];
              stats.masked_cells += chunk.masked_cells;
              size_t next_sig = 0;
              for (size_t i = begin; i < end; ++i) {
                ++stats.candidates;
                switch (verdicts[i]) {
                  case Verdict::kDiscard:
                    ++stats.discards;
                    break;
                  case Verdict::kSig: {
                    ++stats.significant;
                    ++stats.chi2_tests;
                    const SigPayload& sig = chunk.sig[next_sig++];
                    sig_item_bytes += k * sizeof(ItemId);
                    result.significant.push_back(CorrelationRule{
                        std::move(cand.itemsets[i]), sig.chi2, sig.major});
                    break;
                  }
                  case Verdict::kNotSig:
                    ++stats.not_significant;
                    ++stats.chi2_tests;
                    if (keep_not_sig) {
                      const Itemset& s = cand.itemsets[i];
                      not_sig_items.insert(not_sig_items.end(), s.begin(),
                                           s.end());
                      next.counts.push_back(cand_counts[i]);
                      next.subsets.insert(
                          next.subsets.end(),
                          cand.subsets.begin() + i * subset_stride,
                          cand.subsets.begin() + (i + 1) * subset_stride);
                    }
                    break;
                }
              }
              std::vector<SigPayload>().swap(chunk.sig);
              return Status::OK();
            }));
        evaluate_ns = eval_phase.Stop();
      }
      peak_cand_bytes = std::max<uint64_t>(
          peak_cand_bytes,
          cand.itemsets.capacity() * sizeof(Itemset) +
              num_cand * k * sizeof(ItemId) +
              cand.subsets.capacity() * sizeof(uint32_t) +
              cand_counts.capacity() * sizeof(uint64_t) +
              verdicts.capacity() * sizeof(Verdict) +
              chunks.capacity() * sizeof(EvalChunk));
      // The level's candidates are committed: SIG moved to the result,
      // NOTSIG copied into the table. Release them before Step 8 builds
      // the next level's.
      cand = Candidates();
      CORRMINE_ASSIGN_OR_RETURN(
          next.members, hash::ItemsetTable::Build(k, std::move(not_sig_items)));

      // Step 8 needs the level's complete NOTSIG table, so it runs once the
      // pipeline has drained.
      if (gen_next) {
        Phase gen_phase(registry, "miner.generate", level, -1,
                        static_cast<int64_t>(next.members.size()));
        CORRMINE_RETURN_NOT_OK(
            GenerateCandidates(next, k, pool, &next_cand));
        generate_ns = gen_phase.Stop();
      }
    }

    bool exhausted = stats.candidates == 0;
    if (!exhausted) {
      result.levels.push_back(stats);
      counters.AddLevel(stats);
    }
    // Level-boundary memory samples. Peak RSS: the gauge is
    // last-write-wins and ru_maxrss is monotone, so this tracks *when* the
    // peak grew (visible per level in --trace-out via the dump, not just at
    // session end). The miner's own structures: the largest level's
    // candidates, the NOTSIG tables kept so far, and the SIG list.
    registry.GetGauge("mem.peak_rss_bytes")
        ->Set(static_cast<int64_t>(PeakRssBytes()));
    uint64_t notsig_bytes = next.MemoryBytes();
    for (const LevelTable& table : tables) notsig_bytes += table.MemoryBytes();
    peak_notsig_bytes = std::max(peak_notsig_bytes, notsig_bytes);
    registry.GetGauge("mem.miner_cand_bytes")
        ->Set(static_cast<int64_t>(peak_cand_bytes));
    registry.GetGauge("mem.miner_notsig_bytes")
        ->Set(static_cast<int64_t>(peak_notsig_bytes));
    registry.GetGauge("mem.miner_sig_bytes")
        ->Set(static_cast<int64_t>(
            result.significant.capacity() * sizeof(CorrelationRule) +
            sig_item_bytes));

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
    const hash::ItemsetTable& last = tables.back().members;
    result.frontier.reserve(last.size());
    for (size_t i = 0; i < last.size(); ++i) {
      const std::span<const ItemId> items = last.member(i);
      result.frontier.emplace_back(
          std::vector<ItemId>(items.begin(), items.end()));
    }
  }
  return result;
}

}  // namespace corrmine
