#include "itemset/sharded_database.h"

#include <algorithm>
#include <bit>
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

ShardedCountProvider::ShardedCountProvider(ItemId num_items,
                                           size_t num_shards)
    : num_items_(num_items),
      shard_batch_ns_(MetricsRegistry::Global().GetHistogram(
          "sharded.shard_batch_ns")),
      batch_imbalance_(MetricsRegistry::Global().GetGauge(
          "sharded.batch_imbalance_x1000")),
      index_bytes_(
          MetricsRegistry::Global().GetGauge("mem.shard_index_bytes")) {
  num_shards = std::max<size_t>(num_shards, 1);
  indexes_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) indexes_.emplace_back(num_items, 0);
  MetricsRegistry::Global()
      .GetGauge("sharded.shards")
      ->Set(static_cast<int64_t>(num_shards));
  index_bytes_->Set(0);
}

ShardedCountProvider::ShardedCountProvider(const ShardedTransactionDatabase& db)
    : ShardedCountProvider(db.num_items(), db.num_shards()) {
  for (size_t k = 0; k < indexes_.size(); ++k) {
    indexes_[k] = VerticalIndex(db.shard(k));
  }
  num_baskets_ = db.num_baskets();
  next_shard_ = num_baskets_ % indexes_.size();
  next_row_ = num_baskets_ / indexes_.size();
  index_bytes_->Set(static_cast<int64_t>(IndexMemoryBytes()));
}

void ShardedCountProvider::Reserve(ItemId num_items, uint64_t num_baskets) {
  num_items_ = std::max(num_items_, num_items);
  const uint64_t shards = indexes_.size();
  for (uint64_t k = 0; k < shards; ++k) {
    // Shard k holds the baskets j < num_baskets with j % K == k.
    const uint64_t rows = (num_baskets + shards - 1 - k) / shards;
    VerticalIndex& index = indexes_[k];
    index.Grow(num_items_, std::max<size_t>(rows, index.num_baskets()));
  }
  index_bytes_->Set(static_cast<int64_t>(IndexMemoryBytes()));
}

void ShardedCountProvider::Append(const TransactionDatabase& chunk) {
  Reserve(chunk.num_items(), num_baskets_ + chunk.num_baskets());
  for (size_t row = 0; row < chunk.num_baskets(); ++row) {
    AddBasket(chunk.basket(row));
  }
}

TransactionDatabase ShardedCountProvider::ReadRows(uint64_t begin,
                                                   uint64_t end) const {
  CORRMINE_CHECK(begin <= end && end <= num_baskets_)
      << "ReadRows [" << begin << ", " << end << ") past basket "
      << num_baskets_;
  std::vector<std::vector<ItemId>> rows(end - begin);
  const uint64_t shards = indexes_.size();
  for (uint64_t k = 0; k < shards; ++k) {
    // The baskets of [begin, end) that shard k holds are its rows
    // [first, last); item by item, their set bits are appended to the rows
    // they belong to, so every row comes out ascending.
    const uint64_t first = (begin + shards - 1 - k) / shards;
    const uint64_t last = (end + shards - 1 - k) / shards;
    if (first == last) continue;
    const uint64_t first_word = first / 64;
    const uint64_t last_word = (last - 1) / 64;
    const uint64_t head_mask = ~uint64_t{0} << (first % 64);
    const uint64_t tail_mask = ~uint64_t{0} >> (63 - (last - 1) % 64);
    for (ItemId item = 0; item < num_items_; ++item) {
      const uint64_t* words = indexes_[k].item_words(item);
      for (uint64_t w = first_word; w <= last_word; ++w) {
        uint64_t bits = words[w];
        if (w == first_word) bits &= head_mask;
        if (w == last_word) bits &= tail_mask;
        while (bits != 0) {
          const uint64_t row =
              w * 64 + static_cast<uint64_t>(std::countr_zero(bits));
          rows[row * shards + k - begin].push_back(item);
          bits &= bits - 1;
        }
      }
    }
  }
  TransactionDatabase out(num_items_);
  for (std::vector<ItemId>& row : rows) {
    Status status = out.AddBasket(std::move(row));
    CORRMINE_CHECK(status.ok()) << status.ToString();
  }
  return out;
}

uint64_t ShardedCountProvider::ItemCount(ItemId item) const {
  uint64_t total = 0;
  for (const VerticalIndex& index : indexes_) total += index.ItemCount(item);
  return total;
}

uint64_t ShardedCountProvider::IndexMemoryBytes() const {
  uint64_t bytes = 0;
  for (const VerticalIndex& index : indexes_) bytes += index.MemoryBytes();
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
