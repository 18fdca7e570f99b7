#include "core/session.h"

#include <utility>

#include "common/metrics.h"
#include "common/phase.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "io/binary_io.h"
#include "io/sharded_loader.h"
#include "io/transaction_io.h"

namespace corrmine {

namespace {

Status ValidateSessionOptions(const SessionOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (options.num_shards < 0) {
    return Status::InvalidArgument("num_shards must be >= 0");
  }
  return Status::OK();
}

/// Reads `path` into the session's shard layout: named-item text is
/// interned first, every other file goes through the sniffing loader.
StatusOr<ShardedTransactionDatabase> LoadSessionDatabase(
    const std::string& path, size_t shards, const SessionOptions& options) {
  if (options.named_items) {
    CORRMINE_ASSIGN_OR_RETURN(std::string text, io::ReadFileToString(path));
    CORRMINE_ASSIGN_OR_RETURN(TransactionDatabase db,
                              io::ParseNamedTransactions(text));
    return ShardedTransactionDatabase::Partition(db, shards);
  }
  return io::LoadTransactionFileSharded(path, shards, options.num_items_hint);
}

}  // namespace

MiningSession::MiningSession(MiningSession&&) noexcept = default;
MiningSession& MiningSession::operator=(MiningSession&&) noexcept = default;
MiningSession::~MiningSession() = default;

MiningSession::MiningSession(ShardedTransactionDatabase db,
                             const SessionOptions& options)
    : db_(std::move(db)),
      provider_kind_(options.provider),
      threads_(ThreadPool::ResolveThreadCount(options.num_threads)),
      metrics_(options.metrics) {
  {
    Phase build_phase(metrics(), "session.build_index", -1,
                      static_cast<int64_t>(db_.num_shards()),
                      static_cast<int64_t>(db_.num_baskets()));
    switch (provider_kind_) {
      case SessionProvider::kBitmap:
        sharded_provider_ = std::make_unique<ShardedCountProvider>(db_);
        active_provider_ = sharded_provider_.get();
        break;
      case SessionProvider::kCompressed:
        compressed_provider_ = std::make_unique<CompressedCountProvider>(db_);
        active_provider_ = compressed_provider_.get();
        break;
      case SessionProvider::kScan:
        scan_provider_ = std::make_unique<ShardedScanCountProvider>(db_);
        active_provider_ = scan_provider_.get();
        break;
    }
  }
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  metrics().GetGauge("mem.peak_rss_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
}

StatusOr<MiningSession> MiningSession::Open(const std::string& path,
                                            const SessionOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateSessionOptions(options));
  const size_t shards =
      ShardedTransactionDatabase::ResolveShardCount(options.num_shards);
  StatusOr<ShardedTransactionDatabase> db = Status::Internal("not loaded");
  {
    Phase load_phase(options.metrics != nullptr ? *options.metrics
                                                : MetricsRegistry::Global(),
                     "io.load", -1, static_cast<int64_t>(shards));
    db = LoadSessionDatabase(path, shards, options);
  }
  CORRMINE_RETURN_NOT_OK(db.status());
  return MiningSession(std::move(*db), options);
}

StatusOr<MiningSession> MiningSession::FromDatabase(
    const TransactionDatabase& db, const SessionOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateSessionOptions(options));
  const size_t shards =
      ShardedTransactionDatabase::ResolveShardCount(options.num_shards);
  return MiningSession(ShardedTransactionDatabase::Partition(db, shards),
                       options);
}

StatusOr<MiningSession> MiningSession::FromShardedDatabase(
    ShardedTransactionDatabase db, const SessionOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateSessionOptions(options));
  return MiningSession(std::move(db), options);
}

MetricsRegistry& MiningSession::metrics() const {
  return metrics_ != nullptr ? *metrics_ : MetricsRegistry::Global();
}

// Memory bookkeeping shared by every Mine* entry point: refreshed after each
// run so a stats dump taken at any point reflects the high-water marks.
void MiningSession::PublishMemoryGauges() const {
  MetricsRegistry& registry = metrics();
  registry.GetGauge("mem.peak_rss_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
  if (sharded_provider_ != nullptr) {
    registry.GetGauge("mem.shard_index_bytes")
        ->Set(static_cast<int64_t>(sharded_provider_->IndexMemoryBytes()));
  }
  if (compressed_provider_ != nullptr) {
    registry.GetGauge("mem.shard_index_bytes")
        ->Set(static_cast<int64_t>(compressed_provider_->IndexMemoryBytes()));
    const ColumnStorageStats storage = compressed_provider_->StorageStats();
    registry.GetGauge("column.array_containers")
        ->Set(static_cast<int64_t>(storage.array_containers));
    registry.GetGauge("column.dense_containers")
        ->Set(static_cast<int64_t>(storage.dense_containers));
    registry.GetGauge("column.run_containers")
        ->Set(static_cast<int64_t>(storage.run_containers));
    registry.GetGauge("column.payload_bytes")
        ->Set(static_cast<int64_t>(storage.payload_bytes));
  }
}

Status MiningSession::AppendBatch(const TransactionDatabase& chunk) {
  Phase phase(metrics(), "session.append", -1,
              static_cast<int64_t>(chunk.num_baskets()),
              static_cast<int64_t>(chunk.num_items()));
  if (chunk.num_items() > db_.num_items()) {
    CORRMINE_RETURN_NOT_OK(db_.GrowItemSpace(chunk.num_items()));
  }
  for (size_t row = 0; row < chunk.num_baskets(); ++row) {
    CORRMINE_RETURN_NOT_OK(db_.AddBasket(chunk.basket(row)));
  }
  if (sharded_provider_ != nullptr) sharded_provider_->AppendFrom(db_);
  if (compressed_provider_ != nullptr) compressed_provider_->AppendFrom(db_);
  // The scan provider reads db_ live — nothing to catch up.
  PublishMemoryGauges();
  return Status::OK();
}

StatusOr<MiningResult> MiningSession::Mine(MinerOptions options) const {
  Phase phase(metrics(), "session.mine", -1,
              static_cast<int64_t>(db_.num_shards()),
              static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  if (options.metrics == nullptr) options.metrics = metrics_;
  auto result = MineCorrelations(provider(), db_.num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<MiningResult> MiningSession::MineRandomWalk(
    RandomWalkOptions options) const {
  Phase phase(metrics(), "session.mine_random_walk", -1,
              static_cast<int64_t>(db_.num_shards()),
              static_cast<int64_t>(threads_));
  options.miner.num_threads = threads_;
  options.miner.pool = pool_.get();
  if (options.miner.metrics == nullptr) options.miner.metrics = metrics_;
  auto result = MineCorrelationsRandomWalk(provider(), db_.num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<std::vector<FrequentItemset>> MiningSession::MineFrequent(
    AprioriOptions options) const {
  Phase phase(metrics(), "session.mine_frequent", -1,
              static_cast<int64_t>(db_.num_shards()),
              static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  auto result = MineFrequentItemsets(provider(), db_.num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<std::vector<FrequentItemset>> MiningSession::MineFrequentEclat(
    EclatOptions options) const {
  Phase phase(metrics(), "session.mine_frequent_eclat", -1,
              static_cast<int64_t>(db_.num_shards()),
              static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  auto result = MineFrequentItemsetsEclat(db_, options);
  PublishMemoryGauges();
  return result;
}

}  // namespace corrmine
