#include "core/contingency_table.h"

#include <cmath>
#include <unordered_map>

#include "common/logging.h"

namespace corrmine {

IndependenceModel::IndependenceModel(uint64_t n,
                                     std::vector<uint64_t> item_counts)
    : n_(n), item_counts_(std::move(item_counts)) {
  CORRMINE_CHECK(n_ > 0) << "independence model over an empty database";
  probs_.reserve(item_counts_.size());
  for (uint64_t c : item_counts_) {
    probs_.push_back(static_cast<double>(c) / static_cast<double>(n_));
  }
}

double IndependenceModel::Expected(uint32_t mask) const {
  double e = static_cast<double>(n_);
  for (size_t j = 0; j < probs_.size(); ++j) {
    e *= (mask >> j) & 1 ? probs_[j] : 1.0 - probs_[j];
  }
  return e;
}

namespace {

Status ValidateItemset(const Itemset& s, ItemId limit, int max_items) {
  if (s.empty()) {
    return Status::InvalidArgument("contingency table over empty itemset");
  }
  if (static_cast<int>(s.size()) > max_items) {
    return Status::OutOfRange("itemset too large for this representation: " +
                              std::to_string(s.size()));
  }
  if (s.items().back() >= limit) {
    return Status::OutOfRange("itemset contains out-of-range item " +
                              std::to_string(s.items().back()));
  }
  return Status::OK();
}

}  // namespace

StatusOr<ContingencyTable> ContingencyTable::Build(
    const CountProvider& provider, const Itemset& s) {
  CORRMINE_RETURN_NOT_OK(ValidateItemset(
      s, static_cast<ItemId>(UINT32_MAX), kMaxItems));
  uint64_t n = provider.num_baskets();
  if (n == 0) {
    return Status::FailedPrecondition("contingency table over empty database");
  }
  const int k = static_cast<int>(s.size());
  const uint32_t num_cells = uint32_t{1} << k;

  // superset_count[m] = number of baskets containing every item of mask m.
  std::vector<uint64_t> counts(num_cells);
  counts[0] = n;
  for (uint32_t m = 1; m < num_cells; ++m) {
    std::vector<ItemId> items;
    for (int j = 0; j < k; ++j) {
      if ((m >> j) & 1) items.push_back(s.item(j));
    }
    counts[m] = provider.CountAllPresent(Itemset(std::move(items)));
  }
  return FromAllPresentCounts(s, counts);
}

StatusOr<ContingencyTable> ContingencyTable::FromAllPresentCounts(
    const Itemset& s, std::span<const uint64_t> all_present) {
  CORRMINE_RETURN_NOT_OK(ValidateItemset(
      s, static_cast<ItemId>(UINT32_MAX), kMaxItems));
  const int k = static_cast<int>(s.size());
  const uint32_t num_cells = uint32_t{1} << k;
  if (all_present.size() != num_cells) {
    return Status::InvalidArgument(
        "superset-count vector size does not match 2^|s|");
  }
  const uint64_t n = all_present[0];
  if (n == 0) {
    return Status::FailedPrecondition("contingency table over empty database");
  }

  std::vector<uint64_t> item_counts(k);
  for (int j = 0; j < k; ++j) item_counts[j] = all_present[uint32_t{1} << j];

  // Mobius inversion over the superset lattice turns "at least the items in
  // m" counts into exact cell counts: for each bit j, subtract the count of
  // the mask with j forced present from every mask lacking j.
  // We compute into signed space, then check non-negativity.
  std::vector<int64_t> exact(all_present.begin(), all_present.end());
  for (int j = 0; j < k; ++j) {
    const uint32_t bit = uint32_t{1} << j;
    for (uint32_t m = 0; m < num_cells; ++m) {
      if (!(m & bit)) exact[m] -= exact[m | bit];
    }
  }
  std::vector<uint64_t> observed(num_cells);
  for (uint32_t m = 0; m < num_cells; ++m) {
    if (exact[m] < 0) {
      return Status::Corruption(
          "inconsistent counts from provider (negative cell)");
    }
    observed[m] = static_cast<uint64_t>(exact[m]);
  }

  return ContingencyTable(s, IndependenceModel(n, std::move(item_counts)),
                          std::move(observed));
}

size_t ContingencyTable::CellsWithCountAtLeast(uint64_t threshold) const {
  size_t count = 0;
  for (uint64_t o : observed_) {
    if (o >= threshold) ++count;
  }
  return count;
}

StatusOr<SparseContingencyTable> SparseContingencyTable::Build(
    const TransactionDatabase& db, const Itemset& s) {
  CORRMINE_RETURN_NOT_OK(ValidateItemset(s, db.num_items(), kMaxItems));
  if (db.num_baskets() == 0) {
    return Status::FailedPrecondition("contingency table over empty database");
  }
  const int k = static_cast<int>(s.size());

  std::unordered_map<uint32_t, uint64_t> pattern_counts;
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    // Merge the sorted basket against the sorted itemset to form the mask.
    const std::vector<ItemId>& basket = db.basket(row);
    uint32_t mask = 0;
    size_t bi = 0;
    for (int j = 0; j < k; ++j) {
      ItemId target = s.item(j);
      while (bi < basket.size() && basket[bi] < target) ++bi;
      if (bi < basket.size() && basket[bi] == target) {
        mask |= uint32_t{1} << j;
        ++bi;
      }
    }
    ++pattern_counts[mask];
  }

  std::vector<uint64_t> item_counts(k);
  for (int j = 0; j < k; ++j) item_counts[j] = db.ItemCount(s.item(j));

  std::vector<Cell> cells;
  cells.reserve(pattern_counts.size());
  for (const auto& [mask, count] : pattern_counts) {
    cells.push_back(Cell{mask, count});
  }

  return SparseContingencyTable(
      s, IndependenceModel(db.num_baskets(), std::move(item_counts)),
      std::move(cells));
}

double SparseContingencyTable::TotalCellCount() const {
  return std::ldexp(1.0, num_items());
}

size_t SparseContingencyTable::CellsWithCountAtLeast(
    uint64_t threshold) const {
  if (threshold == 0) return static_cast<size_t>(TotalCellCount());
  size_t count = 0;
  for (const Cell& cell : cells_) {
    if (cell.observed >= threshold) ++count;
  }
  return count;
}

}  // namespace corrmine
