#ifndef CORRMINE_CORE_CONTINGENCY_TABLE_H_
#define CORRMINE_CORE_CONTINGENCY_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "itemset/count_provider.h"
#include "itemset/itemset.h"

namespace corrmine {

/// Shared bookkeeping for a k-item presence/absence table: sample size n,
/// marginal counts O(i_j) of the itemset's items, and expected cell values
/// under the independence hypothesis (Section 3 of the paper):
///   E[r] = n * prod_j (p_j if item j present in r else 1 - p_j).
/// Cells are addressed by a k-bit mask; bit j set means the j-th (sorted)
/// item of S is present.
class IndependenceModel {
 public:
  IndependenceModel() = default;
  IndependenceModel(uint64_t n, std::vector<uint64_t> item_counts);

  uint64_t n() const { return n_; }
  int num_items() const { return static_cast<int>(item_counts_.size()); }
  uint64_t item_count(int j) const { return item_counts_[j]; }
  double item_probability(int j) const { return probs_[j]; }

  /// Expected count of cell `mask` under k-way independence.
  double Expected(uint32_t mask) const;

 private:
  uint64_t n_ = 0;
  std::vector<uint64_t> item_counts_;
  std::vector<double> probs_;
};

/// Dense 2^k contingency table for an itemset S. Observed counts of every
/// presence/absence pattern are materialized; suitable for the small k the
/// level-wise search visits (the size cap keeps memory bounded).
class ContingencyTable {
 public:
  /// Largest supported itemset (2^16 cells); larger sets should use the
  /// sparse representation.
  static constexpr int kMaxItems = 16;

  /// Builds the table by querying `provider` for the 2^k "all items of m
  /// present" counts and Mobius-inverting them into exact cell counts.
  /// Requires 1 <= |s| <= kMaxItems, items within range, and a non-empty
  /// database.
  static StatusOr<ContingencyTable> Build(const CountProvider& provider,
                                          const Itemset& s);

  /// Assembles the table from precomputed superset counts:
  /// `all_present[m]` = baskets containing every item of submask m of `s`
  /// (bit j = j-th sorted item), for all 2^|s| masks with
  /// `all_present[0] == n`. This is the path the batched level-wise miner
  /// uses — it counts a whole level's candidates in one
  /// CountAllPresentBatch, takes every proper subset's count from the
  /// earlier levels, then Mobius-inverts per candidate. Same validation
  /// and negativity checks as Build; identical tables for identical
  /// counts.
  static StatusOr<ContingencyTable> FromAllPresentCounts(
      const Itemset& s, std::span<const uint64_t> all_present);

  const Itemset& itemset() const { return itemset_; }
  int num_items() const { return model_.num_items(); }
  size_t num_cells() const { return observed_.size(); }
  uint64_t n() const { return model_.n(); }

  uint64_t Observed(uint32_t mask) const { return observed_[mask]; }
  double Expected(uint32_t mask) const { return model_.Expected(mask); }
  const IndependenceModel& model() const { return model_; }

  /// Number of cells whose observed count is >= `threshold` (the quantity
  /// the paper's generalized support definition is stated in terms of).
  size_t CellsWithCountAtLeast(uint64_t threshold) const;

 private:
  ContingencyTable(Itemset s, IndependenceModel model,
                   std::vector<uint64_t> observed)
      : itemset_(std::move(s)),
        model_(std::move(model)),
        observed_(std::move(observed)) {}

  Itemset itemset_;
  IndependenceModel model_;
  std::vector<uint64_t> observed_;
};

/// Sparse contingency table: only occupied cells (observed > 0) are stored,
/// of which there are at most min(n, 2^k). This is the representation behind
/// the paper's massaged chi-squared formula (Section 4) and scales to large
/// itemsets where 2^k is astronomical.
class SparseContingencyTable {
 public:
  struct Cell {
    uint32_t mask;      // presence pattern, bit j = j-th item of S present
    uint64_t observed;  // > 0 by construction
  };

  /// Supports up to 32 items (mask width); the cell count is bounded by n
  /// regardless of k.
  static constexpr int kMaxItems = 32;

  /// Builds by projecting every basket onto S and hashing the patterns —
  /// one database pass, O(n) cells worst case.
  static StatusOr<SparseContingencyTable> Build(const TransactionDatabase& db,
                                                const Itemset& s);

  const Itemset& itemset() const { return itemset_; }
  int num_items() const { return model_.num_items(); }
  uint64_t n() const { return model_.n(); }
  double Expected(uint32_t mask) const { return model_.Expected(mask); }
  const IndependenceModel& model() const { return model_; }

  const std::vector<Cell>& occupied_cells() const { return cells_; }

  /// Total number of cells, 2^k (occupied or not).
  double TotalCellCount() const;

  /// Number of cells with observed count >= threshold; for threshold >= 1
  /// only occupied cells qualify so this is a scan of the sparse list.
  size_t CellsWithCountAtLeast(uint64_t threshold) const;

 private:
  SparseContingencyTable(Itemset s, IndependenceModel model,
                         std::vector<Cell> cells)
      : itemset_(std::move(s)),
        model_(std::move(model)),
        cells_(std::move(cells)) {}

  Itemset itemset_;
  IndependenceModel model_;
  std::vector<Cell> cells_;
};

}  // namespace corrmine

#endif  // CORRMINE_CORE_CONTINGENCY_TABLE_H_
