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
};

/// One place that owns everything a mining run needs — the per-shard bitmap
/// indexes (ShardedCountProvider, which also holds n, the item space and
/// the exact item counts), the item dictionary and the thread pool — so
/// front ends (the CLI, tests, benchmarks) stop hand-assembling
/// provider/pool/option plumbing. Every run records into
/// MetricsRegistry::Global(). The session keeps no row store: the bitmaps
/// are the only copy of the data, and rows are read back from them on
/// demand (ReadRows, Flatten). Construction resolves the
/// 0-means-auto conventions once; every Mine* method lends the session's
/// pool to the run and wires the resolved thread count through, so results
/// are identical to standalone calls with the same settings.
class MiningSession {
 public:
  /// Loads `path` (auto-detected CMB1 binary or text, io/format_detect.h)
  /// into the session's K-shard bitmaps. A CMB1 file decodes straight into
  /// them (io::LoadBinaryIntoIndex), timed as one "io.load" phase; text and
  /// named-item inputs are parsed into rows ("io.load"), indexed as in
  /// FromDatabase, and the rows dropped.
  static StatusOr<MiningSession> Open(const std::string& path,
                                      const SessionOptions& options = {});

  /// Indexes `db`'s rows into K shards ("session.build_index"); the session
  /// keeps no reference to `db`.
  static StatusOr<MiningSession> FromDatabase(const TransactionDatabase& db,
                                              const SessionOptions& options = {});

  /// Indexes an already-sharded database shard by shard (its K wins over
  /// options.num_shards) and drops its rows.
  static StatusOr<MiningSession> FromShardedDatabase(
      ShardedTransactionDatabase db, const SessionOptions& options = {});

  // Out-of-line so unique_ptr<ThreadPool> can destroy a complete type.
  MiningSession(MiningSession&&) noexcept;
  MiningSession& operator=(MiningSession&&) noexcept;
  ~MiningSession();

  /// Level-wise chi-squared mining (Figure 1) over the session's provider.
  /// The session fills in num_threads/pool; all other fields of
  /// `options` are the caller's.
  StatusOr<MiningResult> Mine(MinerOptions options = {}) const;

  /// Delta ingestion: appends `chunk`'s baskets in order (round-robin
  /// placement continues where loading left off), growing the item space to
  /// cover chunk.num_items() when the delta introduces new items. The
  /// chunk's bits are set in the per-shard bitmaps in place — no rebuild.
  /// After the call every count is exactly what a fresh session over
  /// base+delta would produce. Must not race with Mine* calls.
  Status AppendBatch(const TransactionDatabase& chunk);

  /// The random-walk border sampler, same wiring as Mine.
  StatusOr<MiningResult> MineRandomWalk(RandomWalkOptions options = {}) const;

  /// Apriori frequent-itemset mining over the session's provider (one
  /// CountAllPresentBatch per level).
  StatusOr<std::vector<FrequentItemset>> MineFrequent(
      AprioriOptions options = {}) const;

  /// Shard-native Eclat over the session's per-shard bitmaps.
  StatusOr<std::vector<FrequentItemset>> MineFrequentEclat(
      EclatOptions options = {}) const;

  /// The per-shard bitmap provider every Mine* call counts with.
  const CountProvider& provider() const { return *provider_; }

  size_t num_shards() const { return provider_->num_shards(); }
  /// Resolved thread count (the 0-means-auto convention already applied).
  int num_threads() const { return threads_; }
  /// The session's lending pool; nullptr when running sequentially.
  ThreadPool* pool() const { return pool_.get(); }

  ItemId num_items() const { return provider_->num_items(); }
  uint64_t num_baskets() const { return provider_->num_baskets(); }
  const ItemDictionary& dictionary() const { return dictionary_; }

  /// Baskets [begin, end) in arrival order, read back from the bitmaps
  /// (ShardedCountProvider::ReadRows), without the dictionary.
  TransactionDatabase ReadRows(uint64_t begin, uint64_t end) const {
    return provider_->ReadRows(begin, end);
  }

  /// Every basket in arrival order, with the dictionary, for consumers
  /// that need a contiguous row store (e.g. the permutation independence
  /// test). Read back from the bitmaps on each call.
  TransactionDatabase Flatten() const;

 private:
  MiningSession(std::unique_ptr<ShardedCountProvider> provider,
                ItemDictionary dictionary, const SessionOptions& options);

  /// Refreshes the "mem.peak_rss_bytes" gauge; called after every Mine*
  /// run.
  void PublishMemoryGauges() const;

  std::unique_ptr<ShardedCountProvider> provider_;
  ItemDictionary dictionary_;
  std::unique_ptr<ThreadPool> pool_;
  int threads_ = 1;
};

}  // namespace corrmine

#endif  // CORRMINE_CORE_SESSION_H_
