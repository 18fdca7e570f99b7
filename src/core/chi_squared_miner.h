#ifndef CORRMINE_CORE_CHI_SQUARED_MINER_H_
#define CORRMINE_CORE_CHI_SQUARED_MINER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status_or.h"
#include "core/cell_support.h"
#include "core/chi_squared_test.h"
#include "core/interest.h"
#include "itemset/count_provider.h"

namespace corrmine {

class ThreadPool;

/// One heartbeat of a long-running mine, delivered to
/// MinerOptions::progress after each lattice level completes.
struct MinerProgress {
  int level = 0;
  /// Candidates examined at this level.
  uint64_t candidates = 0;
  /// NOTSIG survivors feeding the next level (0 when the search stops).
  uint64_t frontier = 0;
  /// Minimal correlated sets found so far, all levels.
  uint64_t significant_total = 0;
  /// Wall-clock nanoseconds of this level's evaluation and of the next
  /// level's candidate generation (0 when no level follows): the values
  /// the level observed into "miner.evaluate.ns" and "miner.generate.ns".
  uint64_t evaluate_ns = 0;
  uint64_t generate_ns = 0;
};

/// Options for the chi-squared/support mining algorithm (Figure 1 of the
/// paper).
struct MinerOptions {
  /// Significance level alpha for the chi-squared cutoff; 0.95 gives the
  /// paper's 3.84 cutoff under the single-dof policy.
  double confidence_level = 0.95;

  /// The generalized support pruning parameters (s and p).
  CellSupportPolicy support;

  /// How pairs are pre-pruned before level 2 (Figure 1 step 3).
  LevelOnePruning level_one = LevelOnePruning::kFigure1Strict;

  /// Statistic options (expected-value masking, dof policy).
  ChiSquaredOptions chi2;

  /// Stop after this level even if candidates remain; 0 = no limit (the
  /// dense contingency-table cap still applies).
  int max_level = 0;

  /// When true, the search additionally returns the *frontier*: the
  /// supported-but-uncorrelated itemsets (NOTSIG) of the final level
  /// processed. Together with the minimal correlated sets this bounds the
  /// correlation border from both sides — useful for analysis and for
  /// seeding random walks. Costs the memory of keeping the last NOTSIG
  /// alive.
  bool keep_frontier = false;

  /// Worker threads for candidate evaluation (contingency-table builds and
  /// chi-squared tests, the §4 dominant cost). 1 = sequential; 0 = one per
  /// hardware thread; N = exactly N. Results are byte-identical across all
  /// settings: candidates are evaluated in index-addressed slots and merged
  /// back in stream order (see DESIGN.md, "Threading architecture").
  int num_threads = 1;

  /// Optional borrowed pool (e.g. a MiningSession's); when null the miner
  /// creates its own for the duration of the call, sized num_threads - 1 so
  /// the calling thread's participation yields num_threads evaluators. A
  /// borrowed pool overrides num_threads for parallel regions; determinism
  /// holds either way.
  ThreadPool* pool = nullptr;

  /// Optional heartbeat, invoked from the coordinating thread after every
  /// completed level (the CLI's --progress wires a stderr printer here).
  /// Purely observational: it sees per-level totals and wall-clock elapsed,
  /// and must not mutate mining state. Unset costs nothing.
  std::function<void(const MinerProgress&)> progress;
};

/// A mined rule: a supported, minimally correlated itemset together with
/// its test result and the cell that drives the correlation.
struct CorrelationRule {
  Itemset itemset;
  ChiSquaredResult chi2;
  CellInterest major_dependence;
};

/// Per-level bookkeeping — exactly the columns of the paper's Table 5.
struct LevelStats {
  int level = 0;
  /// C(|I|, level): itemsets that would be examined with no pruning.
  uint64_t possible_itemsets = 0;
  /// |CAND|: itemsets actually examined.
  uint64_t candidates = 0;
  /// Candidates discarded by the support test.
  uint64_t discards = 0;
  /// |SIG|: supported and correlated (output) itemsets at this level.
  uint64_t significant = 0;
  /// |NOTSIG|: supported but uncorrelated itemsets at this level.
  uint64_t not_significant = 0;
  /// Chi-squared statistics actually computed (candidates that survived the
  /// support test; equals candidates - discards).
  uint64_t chi2_tests = 0;
  /// Contingency cells excluded by ChiSquaredOptions::min_expected_cell
  /// across this level's tests — the §3.3 validity workaround's footprint.
  uint64_t masked_cells = 0;
};

struct MiningResult {
  /// The border: minimal correlated, supported itemsets, in discovery
  /// order (level by level).
  std::vector<CorrelationRule> significant;
  std::vector<LevelStats> levels;
  /// Supported, uncorrelated itemsets of the last processed level (only
  /// populated when MinerOptions::keep_frontier is set), sorted
  /// lexicographically.
  std::vector<Itemset> frontier;
};

/// Runs Algorithm x2-support (Figure 1): level-wise search over the itemset
/// lattice, keeping supported-but-uncorrelated sets (NOTSIG) as the frontier
/// and emitting supported, minimally correlated sets (SIG).
///
/// `provider` answers subset counts over the same database the marginals
/// come from; pass a BitmapCountProvider for large inputs. The search uses
/// dense contingency tables, so it stops at itemsets of
/// ContingencyTable::kMaxItems items.
StatusOr<MiningResult> MineCorrelations(const CountProvider& provider,
                                        ItemId num_items,
                                        const MinerOptions& options = {});

/// C(n, k) saturated at UINT64_MAX (used for LevelStats::possible_itemsets).
uint64_t BinomialCount(uint64_t n, uint64_t k);

}  // namespace corrmine

#endif  // CORRMINE_CORE_CHI_SQUARED_MINER_H_
