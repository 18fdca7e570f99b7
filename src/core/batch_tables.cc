#include "core/batch_tables.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/phase.h"
#include "common/thread_pool.h"

namespace corrmine {

namespace {

using PatternCounts = std::vector<std::unordered_map<uint32_t, uint64_t>>;

/// Projects every basket of [row_begin, row_end) onto every candidate,
/// accumulating presence-pattern counts into `counts` (one map per
/// candidate, indexed like `candidates`).
void CountBasketRange(const TransactionDatabase& db,
                      const std::vector<Itemset>& candidates,
                      size_t row_begin, size_t row_end,
                      PatternCounts* counts) {
  for (size_t row = row_begin; row < row_end; ++row) {
    const std::vector<ItemId>& basket = db.basket(row);
    for (size_t c = 0; c < candidates.size(); ++c) {
      const Itemset& s = candidates[c];
      uint32_t mask = 0;
      size_t bi = 0;
      for (size_t j = 0; j < s.size(); ++j) {
        ItemId target = s.item(j);
        while (bi < basket.size() && basket[bi] < target) ++bi;
        if (bi < basket.size() && basket[bi] == target) {
          mask |= uint32_t{1} << j;
          ++bi;
        }
      }
      // The merge cursor cannot be reused across candidates (different
      // targets), so reset per candidate.
      ++(*counts)[c][mask];
    }
  }
}

Status ValidateBatchArgs(const std::vector<Itemset>& candidates,
                         uint64_t num_baskets, ItemId num_items,
                         int num_threads) {
  if (num_baskets == 0) {
    return Status::FailedPrecondition("batch build over empty database");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  for (const Itemset& s : candidates) {
    if (s.empty() ||
        static_cast<int>(s.size()) > SparseContingencyTable::kMaxItems) {
      return Status::InvalidArgument("invalid candidate itemset size");
    }
    if (s.items().back() >= num_items) {
      return Status::OutOfRange("candidate item out of range");
    }
  }
  return Status::OK();
}

/// Merges the per-shard pattern maps in shard order and assembles one
/// sparse table per candidate. `item_count` answers the global marginal
/// O(i) — exact per-shard sums for the sharded overload.
StatusOr<std::vector<SparseContingencyTable>> AssembleTables(
    const std::vector<Itemset>& candidates,
    const std::vector<PatternCounts>& shard_counts, uint64_t num_baskets,
    const std::function<uint64_t(ItemId)>& item_count) {
  std::vector<SparseContingencyTable> tables;
  tables.reserve(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    const Itemset& s = candidates[c];
    std::unordered_map<uint32_t, uint64_t> merged;
    for (const PatternCounts& counts : shard_counts) {
      for (const auto& [mask, count] : counts[c]) merged[mask] += count;
    }
    std::vector<uint64_t> item_counts(s.size());
    for (size_t j = 0; j < s.size(); ++j) {
      item_counts[j] = item_count(s.item(j));
    }
    std::vector<SparseContingencyTable::Cell> cells;
    cells.reserve(merged.size());
    for (const auto& [mask, count] : merged) {
      cells.push_back(SparseContingencyTable::Cell{mask, count});
    }
    // Mask order makes the cell list independent of hash-map iteration
    // order — and therefore of the shard split.
    std::sort(cells.begin(), cells.end(),
              [](const SparseContingencyTable::Cell& a,
                 const SparseContingencyTable::Cell& b) {
                return a.mask < b.mask;
              });
    CORRMINE_ASSIGN_OR_RETURN(
        SparseContingencyTable table,
        SparseContingencyTable::FromCells(
            s, IndependenceModel(num_baskets, std::move(item_counts)),
            std::move(cells)));
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

StatusOr<std::vector<SparseContingencyTable>> BuildSparseTablesBatch(
    const TransactionDatabase& db, const std::vector<Itemset>& candidates,
    int num_threads) {
  CORRMINE_RETURN_NOT_OK(ValidateBatchArgs(candidates, db.num_baskets(),
                                           db.num_items(), num_threads));
  MetricsRegistry& registry = MetricsRegistry::Global();
  Phase phase(registry, "batch_tables.build");
  registry.GetCounter("batch_tables.candidates")->Add(candidates.size());
  registry.GetCounter("batch_tables.baskets")->Add(db.num_baskets());

  const int threads = ThreadPool::ResolveThreadCount(num_threads);
  // Morsel the basket axis: fixed-size row chunks claimed from the region's
  // shared cursor balance the load (one coarse range per thread used to
  // leave the whole tail on the slowest worker). Each scheduler slot owns a private
  // pattern-map arena; the reduction below sums the arenas in slot order
  // (addition is commutative, so any fixed order gives the sequential
  // counts).
  constexpr size_t kBasketMorsel = 2048;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  const size_t num_slots =
      ParallelForSlotBound(pool.get(), db.num_baskets(), kBasketMorsel);
  std::vector<PatternCounts> slot_counts(num_slots);
  for (PatternCounts& counts : slot_counts) {
    counts.resize(candidates.size());
  }

  CORRMINE_RETURN_NOT_OK(ParallelForSlots(
      pool.get(), db.num_baskets(), kBasketMorsel,
      [&](size_t slot, size_t begin, size_t end) -> Status {
        CountBasketRange(db, candidates, begin, end, &slot_counts[slot]);
        return Status::OK();
      }));

  return AssembleTables(candidates, slot_counts, db.num_baskets(),
                        [&db](ItemId item) { return db.ItemCount(item); });
}

StatusOr<std::vector<SparseContingencyTable>> BuildSparseTablesBatch(
    const ShardedTransactionDatabase& db,
    const std::vector<Itemset>& candidates, int num_threads) {
  CORRMINE_RETURN_NOT_OK(ValidateBatchArgs(candidates, db.num_baskets(),
                                           db.num_items(), num_threads));
  MetricsRegistry& registry = MetricsRegistry::Global();
  Phase phase(registry, "batch_tables.build");
  registry.GetCounter("batch_tables.candidates")->Add(candidates.size());
  registry.GetCounter("batch_tables.baskets")->Add(db.num_baskets());

  // The database shards are the parallel unit; each task projects one
  // shard's baskets onto every candidate into private maps.
  const size_t num_shards = db.num_shards();
  std::vector<PatternCounts> shard_counts(num_shards);
  for (PatternCounts& counts : shard_counts) {
    counts.resize(candidates.size());
  }

  const int threads = ThreadPool::ResolveThreadCount(num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  CORRMINE_RETURN_NOT_OK(ParallelFor(
      pool.get(), num_shards, /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t shard = begin; shard < end; ++shard) {
          const TransactionDatabase& part = db.shard(shard);
          CountBasketRange(part, candidates, 0, part.num_baskets(),
                           &shard_counts[shard]);
        }
        return Status::OK();
      }));

  return AssembleTables(candidates, shard_counts, db.num_baskets(),
                        [&db](ItemId item) { return db.ItemCount(item); });
}

}  // namespace corrmine
