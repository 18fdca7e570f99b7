#include "itemset/sharded_database.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "itemset/kernels.h"

namespace corrmine {

ShardedTransactionDatabase::ShardedTransactionDatabase(ItemId num_items,
                                                       size_t num_shards)
    : num_items_(num_items) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) shards_.emplace_back(num_items);
}

ShardedTransactionDatabase ShardedTransactionDatabase::Partition(
    const TransactionDatabase& db, size_t num_shards) {
  ShardedTransactionDatabase out(db.num_items(), num_shards);
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    Status status = out.AddBasket(db.basket(row));
    CORRMINE_CHECK(status.ok()) << status.ToString();
  }
  out.dictionary_ = db.dictionary();
  return out;
}

size_t ShardedTransactionDatabase::ResolveShardCount(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  if (requested < 0) return 1;
  // Auto-sharding matches the usable core count — affinity- and
  // cgroup-clamped, so containers don't fragment the data into more shards
  // than they have CPUs to scan them.
  return static_cast<size_t>(ThreadPool::UsableHardwareConcurrency());
}

Status ShardedTransactionDatabase::AddBasket(std::vector<ItemId> items) {
  TransactionDatabase& target = shards_[next_row_ % shards_.size()];
  CORRMINE_RETURN_NOT_OK(target.AddBasket(std::move(items)));
  ++next_row_;
  return Status::OK();
}

Status ShardedTransactionDatabase::AppendBatch(
    std::vector<std::vector<ItemId>> baskets) {
  for (std::vector<ItemId>& basket : baskets) {
    CORRMINE_RETURN_NOT_OK(AddBasket(std::move(basket)));
  }
  return Status::OK();
}

Status ShardedTransactionDatabase::GrowItemSpace(ItemId num_items) {
  if (num_items < num_items_) {
    return Status::InvalidArgument(
        "item space cannot shrink: " + std::to_string(num_items) + " < " +
        std::to_string(num_items_));
  }
  for (TransactionDatabase& shard : shards_) {
    CORRMINE_RETURN_NOT_OK(shard.GrowItemSpace(num_items));
  }
  num_items_ = num_items;
  return Status::OK();
}

uint64_t ShardedTransactionDatabase::ItemCount(ItemId item) const {
  uint64_t total = 0;
  for (const TransactionDatabase& shard : shards_) {
    total += shard.ItemCount(item);
  }
  return total;
}

uint64_t ShardedTransactionDatabase::TotalItemOccurrences() const {
  uint64_t total = 0;
  for (const TransactionDatabase& shard : shards_) {
    total += shard.TotalItemOccurrences();
  }
  return total;
}

TransactionDatabase ShardedTransactionDatabase::Flatten() const {
  TransactionDatabase out(num_items_);
  for (uint64_t row = 0; row < next_row_; ++row) {
    Status status = out.AddBasket(basket(row));
    CORRMINE_CHECK(status.ok()) << status.ToString();
  }
  out.dictionary() = dictionary_;
  return out;
}

ShardedCountProvider::ShardedCountProvider(
    const ShardedTransactionDatabase& db)
    : num_baskets_(db.num_baskets()),
      shard_batch_ns_(
          MetricsRegistry::Global().GetHistogram("sharded.shard_batch_ns")),
      batch_imbalance_(MetricsRegistry::Global().GetGauge(
          "sharded.batch_imbalance_x1000")) {
  indexes_.reserve(db.num_shards());
  for (size_t k = 0; k < db.num_shards(); ++k) {
    indexes_.emplace_back(db.shard(k));
  }
  MetricsRegistry::Global().GetGauge("sharded.shards")
      ->Set(static_cast<int64_t>(indexes_.size()));
  MetricsRegistry::Global().GetGauge("mem.shard_index_bytes")
      ->Set(static_cast<int64_t>(IndexMemoryBytes()));
}

void ShardedCountProvider::AppendFrom(const ShardedTransactionDatabase& db) {
  CORRMINE_CHECK(db.num_shards() == indexes_.size())
      << "AppendFrom across a different shard layout";
  for (size_t k = 0; k < indexes_.size(); ++k) {
    indexes_[k].AppendFrom(db.shard(k), indexes_[k].num_baskets());
  }
  num_baskets_ = db.num_baskets();
  MetricsRegistry::Global().GetGauge("mem.shard_index_bytes")
      ->Set(static_cast<int64_t>(IndexMemoryBytes()));
}

uint64_t ShardedCountProvider::IndexMemoryBytes() const {
  uint64_t bytes = 0;
  for (const VerticalIndex& index : indexes_) {
    bytes += static_cast<uint64_t>(index.num_items()) *
             index.words_per_bitmap() * sizeof(uint64_t);
  }
  return bytes;
}

uint64_t ShardedCountProvider::CountAllPresentImpl(const Itemset& s) const {
  uint64_t total = 0;
  for (const VerticalIndex& index : indexes_) {
    total += index.CountAllPresent(s);
  }
  return total;
}

void ShardedCountProvider::CountAllPresentBatchImpl(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  const size_t num_shards = indexes_.size();
  // Stripe-major execution (DESIGN.md §9): the plan is built once from the
  // query stream, and every shard's word stripes are tasks of one region
  // that sums per scheduler slot — K shards add stripe tasks, not K
  // partial-count arrays. Counts are sums of exact per-shard integers,
  // identical for any K and any schedule.
  std::vector<const VerticalIndex*> shards;
  shards.reserve(num_shards);
  for (const VerticalIndex& index : indexes_) shards.push_back(&index);
  std::vector<uint64_t> shard_ns(num_shards, 0);
  CountBlockedBatch(BlockedCountPlan::Build(queries), shards, counts, pool,
                    shard_ns);
  // Shard-imbalance gauge: max/mean of the per-shard batch times, x1000.
  // 1000 means perfectly even; a hot shard pushes it up proportionally.
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
  for (const uint64_t ns : shard_ns) {
    shard_batch_ns_->Observe(ns);
    total_ns += ns;
    max_ns = std::max(max_ns, ns);
  }
  if (total_ns > 0) {
    const double mean =
        static_cast<double>(total_ns) / static_cast<double>(num_shards);
    batch_imbalance_->Set(
        static_cast<int64_t>(1000.0 * static_cast<double>(max_ns) / mean));
  }
}

}  // namespace corrmine
