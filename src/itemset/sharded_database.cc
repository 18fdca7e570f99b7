#include "itemset/sharded_database.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "itemset/kernels.h"

namespace corrmine {

namespace {

/// Prefix groups per (shard, block) task in a parallel batch. Blocks of
/// the group axis give the pool work to steal even at small K, while
/// different shards write to different partial arrays — no two tasks ever
/// share a slot. The blocked plan is built once and shared read-only
/// across every shard (grouping depends only on the query stream).
constexpr size_t kShardGroupBlock = 64;

}  // namespace

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
  const size_t num_queries = queries.size();
  const size_t num_shards = indexes_.size();
  // Prefix-blocked execution per shard (DESIGN.md §9): the plan is built
  // once from the query stream and every shard runs the same groups over
  // its own vertical index, so the per-shard work is K short streaming
  // passes instead of K full AND chains per query.
  BlockedCountPlan plan = BlockedCountPlan::Build(queries);
  const size_t blocks =
      (plan.groups.size() + kShardGroupBlock - 1) / kShardGroupBlock;
  std::vector<std::vector<uint64_t>> partial(
      num_shards, std::vector<uint64_t>(num_queries, 0));
  // Per-shard wall time across this batch's (shard, block) tasks. Workers
  // on different shards add to different slots; same-shard blocks may race
  // benignly on the relaxed add.
  std::vector<std::atomic<uint64_t>> shard_ns(num_shards);
  // One executor arena per scheduler slot, shared across every (shard,
  // block) morsel that slot runs — the tile and accumulator buffers are
  // sized once instead of growing thread-locals on transient pool threads.
  const size_t num_slots = ParallelForSlotBound(pool, num_shards * blocks, 1);
  std::vector<BlockedExecScratch> scratch(num_slots);
  Status status = ParallelForSlots(
      pool, num_shards * blocks, 1,
      [&](size_t slot, size_t begin, size_t end) -> Status {
        for (size_t task = begin; task < end; ++task) {
          const size_t shard = task / blocks;
          const size_t block = task % blocks;
          const size_t g_begin = block * kShardGroupBlock;
          const size_t g_end =
              std::min(g_begin + kShardGroupBlock, plan.groups.size());
          TraceScope block_span("sharded.count_block", -1,
                                static_cast<int64_t>(shard),
                                static_cast<int64_t>(g_end - g_begin));
          BlockedExecStats exec_stats;
          const uint64_t t0 = SteadyNowNanos();
          ExecuteBlockedGroups(plan, g_begin, g_end, indexes_[shard],
                               partial[shard], &exec_stats, &scratch[slot]);
          shard_ns[shard].fetch_add(SteadyNowNanos() - t0,
                                    std::memory_order_relaxed);
          BumpKernelCounters(exec_stats);
        }
        return Status::OK();
      });
  CORRMINE_CHECK(status.ok()) << status.ToString();
  // Shard-imbalance gauge: max/mean of the per-shard batch times, x1000.
  // 1000 means perfectly even; a hot shard pushes it up proportionally.
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const uint64_t ns = shard_ns[shard].load(std::memory_order_relaxed);
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
  // Exact integer fan-in in shard order: counts are sums of per-shard
  // counts, identical for any K and any schedule.
  for (size_t q = 0; q < num_queries; ++q) counts[q] = 0;
  for (const std::vector<uint64_t>& mine : partial) {
    for (size_t q = 0; q < num_queries; ++q) counts[q] += mine[q];
  }
}

uint64_t ShardedScanCountProvider::CountAllPresentImpl(
    const Itemset& s) const {
  CORRMINE_CHECK(!s.empty()) << "CountAllPresent requires a non-empty set";
  uint64_t count = 0;
  for (const TransactionDatabase* rows : shards_) {
    for (size_t row = 0; row < rows->num_baskets(); ++row) {
      if (rows->BasketContainsAll(row, s)) ++count;
    }
  }
  return count;
}

void ShardedScanCountProvider::CountAllPresentBatchImpl(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  // Shard-major over transient per-shard scan providers: each shard batch
  // reuses ScanCountProvider's basket-major chunked scan (deterministic for
  // any pool), and the per-shard partials merge in shard order — exact
  // integer sums, identical for any K.
  std::fill(counts.begin(), counts.end(), uint64_t{0});
  std::vector<uint64_t> partial(queries.size());
  for (const TransactionDatabase* shard : shards_) {
    const ScanCountProvider scan(*shard);
    scan.CountAllPresentBatchUncounted(queries, partial, pool);
    for (size_t q = 0; q < queries.size(); ++q) counts[q] += partial[q];
  }
}

}  // namespace corrmine
