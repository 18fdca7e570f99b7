#ifndef CORRMINE_ITEMSET_SHARDED_DATABASE_H_
#define CORRMINE_ITEMSET_SHARDED_DATABASE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "itemset/count_provider.h"
#include "itemset/transaction_database.h"

namespace corrmine {

class Gauge;
class Histogram;

/// Horizontal partition of the paper's basket data into K shards: basket j
/// (in arrival order) lives in shard j % K at row j / K. Round-robin
/// placement keeps shards within one basket of each other in size and makes
/// the layout invertible — Flatten() reproduces the original basket order
/// exactly.
///
/// The K-invariance contract (DESIGN.md §7): all-items-present counts,
/// per-item marginals O(i), and n are *sums of exact per-shard integers*,
/// so every derived statistic — expected cells, chi-squared verdicts, rule
/// lists — is byte-identical for any K. Sharding changes cost and memory
/// locality, never answers.
class ShardedTransactionDatabase {
 public:
  /// `num_items` fixes the item space; `num_shards` is clamped to >= 1.
  ShardedTransactionDatabase(ItemId num_items, size_t num_shards);

  /// Re-partitions an existing monolithic database (copies the baskets and
  /// the dictionary).
  static ShardedTransactionDatabase Partition(const TransactionDatabase& db,
                                              size_t num_shards);

  /// Shard count for a requested `--shards` value: 0 means "ask the
  /// hardware" (same convention as ThreadPool::ResolveThreadCount); negative
  /// is treated as 1.
  static size_t ResolveShardCount(int requested);

  /// Appends a basket to the next shard in round-robin order; items are
  /// sorted/deduplicated. Errors if any item id is out of range.
  Status AddBasket(std::vector<ItemId> items);

  /// Widens the item space on every shard; errors if it would shrink.
  Status GrowItemSpace(ItemId num_items);

  size_t num_shards() const { return shards_.size(); }
  const TransactionDatabase& shard(size_t i) const { return shards_[i]; }

  /// Total baskets across all shards (the original n).
  uint64_t num_baskets() const { return next_row_; }
  ItemId num_items() const { return num_items_; }

  /// Exact global marginal O(i): sum of the per-shard occurrence counts.
  uint64_t ItemCount(ItemId item) const;

  /// Sum of basket sizes across all shards.
  uint64_t TotalItemOccurrences() const;

  /// Basket `i` in original arrival order (resolves through the round-robin
  /// layout).
  const std::vector<ItemId>& basket(size_t i) const {
    return shards_[i % shards_.size()].basket(i / shards_.size());
  }

  /// Reassembles the monolithic database in original basket order (with the
  /// dictionary) — for consumers that need a contiguous row store, e.g. the
  /// permutation independence test.
  TransactionDatabase Flatten() const;

  /// Optional item dictionary shared by all shards.
  ItemDictionary& dictionary() { return dictionary_; }
  const ItemDictionary& dictionary() const { return dictionary_; }

 private:
  ItemId num_items_;
  std::vector<TransactionDatabase> shards_;
  uint64_t next_row_ = 0;
  ItemDictionary dictionary_;
};

/// CountProvider over the K-shard layout: one vertical index per shard,
/// with basket j (in arrival order) at row j / K of shard j % K, and every
/// count the sum of per-shard AND/popcounts. The indexes are the only copy
/// of the data it needs: a reader fills them basket by basket (Reserve,
/// then AddBasket), or they are built from a database's rows, which may be
/// dropped afterwards; ReadRows reads rows back when a consumer needs them.
/// Batches run the stripe-major executor (kernels.h CountBlockedBatch) with
/// every shard's word stripes as tasks of one region; each scheduler slot
/// sums into its own partial array and the partials are added in slot
/// order, so results are deterministic and identical for any K and any
/// pool (the K-invariance contract above).
///
/// Run-health telemetry (DESIGN.md §8), in MetricsRegistry::Global():
/// gauge "sharded.shards", gauge "mem.shard_index_bytes"
/// (refreshed whenever the bitmaps grow), per-shard batch wall time in
/// histogram "sharded.shard_batch_ns", and gauge
/// "sharded.batch_imbalance_x1000" = 1000 * max/mean of the per-shard batch
/// times — the skew signal the flat counters can't see. Per-(shard, stripe)
/// "bitmap.count_stripe" trace spans land in the worker threads' rings
/// when tracing is active.
class ShardedCountProvider : public CountProvider {
 public:
  /// An index of `num_items` items and no baskets over `num_shards` shards
  /// (clamped to >= 1).
  ShardedCountProvider(ItemId num_items, size_t num_shards);

  /// Builds each shard's index from `db`'s rows; `db` may be discarded
  /// afterwards.
  explicit ShardedCountProvider(const ShardedTransactionDatabase& db);

  /// Widens the item space to `num_items` and sizes every shard's bitmaps
  /// for `num_baskets` baskets in all, so the AddBasket calls up to that
  /// many allocate nothing. Never shrinks.
  void Reserve(ItemId num_items, uint64_t num_baskets);

  /// Sets the bits of the next basket in arrival order, j = num_baskets():
  /// shard j % K, row j / K. `items` must be strictly increasing ids below
  /// num_items(), and Reserve must have made room for basket j.
  void AddBasket(std::span<const ItemId> items) {
    indexes_[next_shard_].SetRow(next_row_, items);
    ++num_baskets_;
    if (++next_shard_ == indexes_.size()) {
      next_shard_ = 0;
      ++next_row_;
    }
  }

  /// Appends `chunk`'s baskets in order, widening the item space to the
  /// chunk's: every count afterwards is what a provider built over the
  /// concatenated rows would give. Must not race with queries.
  void Append(const TransactionDatabase& chunk);

  /// Baskets [begin, end) in arrival order, read back from the bitmaps
  /// (ids ascending, over this item space) — the one transposition from
  /// the vertical layout back to rows. Costs one pass over the words that
  /// cover the range in every item's bitmap.
  TransactionDatabase ReadRows(uint64_t begin, uint64_t end) const;

  uint64_t num_baskets() const override { return num_baskets_; }
  ItemId num_items() const { return num_items_; }

  /// Exact global marginal O(i): the sum of the per-shard counts.
  uint64_t ItemCount(ItemId item) const;

  size_t num_shards() const { return indexes_.size(); }
  const VerticalIndex& shard_index(size_t i) const { return indexes_[i]; }

  /// Bytes held by the per-shard vertical indexes (bitmap words, growth
  /// slack included — the dominant term). Feeds the
  /// "mem.shard_index_bytes" gauge.
  uint64_t IndexMemoryBytes() const;

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override;
  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override;

 private:
  std::vector<VerticalIndex> indexes_;
  ItemId num_items_;
  uint64_t num_baskets_ = 0;
  // Where basket num_baskets_ goes: shard num_baskets_ % K, row
  // num_baskets_ / K.
  size_t next_shard_ = 0;
  size_t next_row_ = 0;
  // Telemetry handles, resolved once from the registry so the batch
  // fan-out pays relaxed atomics, not registry lookups.
  Histogram* shard_batch_ns_;
  Gauge* batch_imbalance_;
  Gauge* index_bytes_;
};

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_SHARDED_DATABASE_H_
