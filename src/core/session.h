#ifndef CORRMINE_CORE_SESSION_H_
#define CORRMINE_CORE_SESSION_H_

#include <memory>
#include <string>

#include "common/status_or.h"
#include "core/chi_squared_miner.h"
#include "core/random_walk_miner.h"
#include "itemset/count_provider.h"
#include "itemset/sharded_database.h"
#include "mining/apriori.h"
#include "mining/eclat.h"

namespace corrmine {

class ThreadPool;

/// Knobs a MiningSession resolves once, up front, instead of every caller
/// re-deriving them per run.
struct SessionOptions {
  /// Worker threads for every parallel region (1 = sequential, 0 = one per
  /// hardware thread). The session owns one pool for its lifetime and lends
  /// it to each run, so repeated runs don't pay thread spawn/join.
  int num_threads = 1;

  /// Database shards K (1 = monolithic layout, 0 = one per hardware
  /// thread). Per the K-invariance contract (DESIGN.md §7) every mined
  /// answer is byte-identical for any K; only cost and memory locality
  /// change.
  int num_shards = 1;

  /// Text inputs hold word tokens, not integer ids (Open only).
  bool named_items = false;

  /// Floors the item space when loading text files (Open only); the CMB1
  /// binary header is authoritative for its own item space.
  ItemId num_items_hint = 0;

  /// Registry for the runs' counters and phase timers; nullptr means
  /// MetricsRegistry::Global().
  MetricsRegistry* metrics = nullptr;
};

/// One place that owns everything a mining run needs — the sharded dataset,
/// its per-shard bitmap indexes (ShardedCountProvider), the thread pool,
/// and the metrics registry — so front ends (the CLI, tests, benchmarks)
/// stop hand-assembling provider/pool/option plumbing. Construction
/// resolves the 0-means-auto conventions once; every Mine* method lends the
/// session's pool to the run and wires the resolved thread count through,
/// so results are identical to standalone calls with the same settings.
class MiningSession {
 public:
  /// Loads `path` (auto-detected CMB1 binary or text, io/format_detect.h)
  /// straight into the session's K-shard layout. Named-item text inputs are
  /// parsed through the dictionary first, then partitioned.
  static StatusOr<MiningSession> Open(const std::string& path,
                                      const SessionOptions& options = {});

  /// Adopts an already-built database, partitioning it into K shards.
  static StatusOr<MiningSession> FromDatabase(const TransactionDatabase& db,
                                              const SessionOptions& options = {});

  /// Adopts an already-sharded database as-is (its K wins over
  /// options.num_shards).
  static StatusOr<MiningSession> FromShardedDatabase(
      ShardedTransactionDatabase db, const SessionOptions& options = {});

  // Out-of-line so unique_ptr<ThreadPool> can destroy a complete type.
  MiningSession(MiningSession&&) noexcept;
  MiningSession& operator=(MiningSession&&) noexcept;
  ~MiningSession();

  /// Level-wise chi-squared mining (Figure 1) over the session's provider.
  /// The session fills in num_threads/pool/metrics; all other fields of
  /// `options` are the caller's.
  StatusOr<MiningResult> Mine(MinerOptions options = {}) const;

  /// Delta ingestion: appends `chunk`'s baskets in order (round-robin
  /// placement continues where loading left off), growing the item space to
  /// cover chunk.num_items() when the delta introduces new items. The
  /// per-shard vertical indexes are caught up in place — no rebuild. After
  /// the call every count is exactly what a fresh session over base+delta
  /// would produce. Must not race with Mine* calls.
  Status AppendBatch(const TransactionDatabase& chunk);

  /// The random-walk border sampler, same wiring as Mine.
  StatusOr<MiningResult> MineRandomWalk(RandomWalkOptions options = {}) const;

  /// Apriori frequent-itemset mining over the session's provider (one
  /// CountAllPresentBatch per level).
  StatusOr<std::vector<FrequentItemset>> MineFrequent(
      AprioriOptions options = {}) const;

  /// Shard-native Eclat over the session's database.
  StatusOr<std::vector<FrequentItemset>> MineFrequentEclat(
      EclatOptions options = {}) const;

  const ShardedTransactionDatabase& database() const { return db_; }
  /// The per-shard bitmap provider every Mine* call counts with.
  const CountProvider& provider() const { return *provider_; }

  size_t num_shards() const { return db_.num_shards(); }
  /// Resolved thread count (the 0-means-auto convention already applied).
  int num_threads() const { return threads_; }
  /// The session's lending pool; nullptr when running sequentially.
  ThreadPool* pool() const { return pool_.get(); }
  MetricsRegistry& metrics() const;

  ItemId num_items() const { return db_.num_items(); }
  uint64_t num_baskets() const { return db_.num_baskets(); }
  const ItemDictionary& dictionary() const { return db_.dictionary(); }

  /// Monolithic copy in original basket order, for consumers that need a
  /// contiguous row store (e.g. the permutation independence test).
  TransactionDatabase Flatten() const { return db_.Flatten(); }

 private:
  MiningSession(ShardedTransactionDatabase db, const SessionOptions& options);

  /// Refreshes the "mem.*" gauges (peak RSS, shard-index bytes) in the
  /// session's registry; called after every Mine* run.
  void PublishMemoryGauges() const;

  ShardedTransactionDatabase db_;
  std::unique_ptr<ShardedCountProvider> provider_;
  std::unique_ptr<ThreadPool> pool_;
  int threads_ = 1;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace corrmine

#endif  // CORRMINE_CORE_SESSION_H_
