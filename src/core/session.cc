#include "core/session.h"

#include <utility>

#include "common/metrics.h"
#include "common/phase.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "io/binary_io.h"
#include "io/format_detect.h"
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

/// Rows of a text or named-item input: named-item text is interned through
/// the dictionary, other text parsed as integer ids.
StatusOr<TransactionDatabase> LoadRows(const std::string& path,
                                       const SessionOptions& options) {
  if (options.named_items) {
    CORRMINE_ASSIGN_OR_RETURN(std::string text, io::ReadFileToString(path));
    return io::ParseNamedTransactions(text);
  }
  return io::ReadTransactionFile(path, options.num_items_hint);
}

}  // namespace

MiningSession::MiningSession(MiningSession&&) noexcept = default;
MiningSession& MiningSession::operator=(MiningSession&&) noexcept = default;
MiningSession::~MiningSession() = default;

MiningSession::MiningSession(std::unique_ptr<ShardedCountProvider> provider,
                             ItemDictionary dictionary,
                             const SessionOptions& options)
    : provider_(std::move(provider)),
      dictionary_(std::move(dictionary)),
      threads_(ThreadPool::ResolveThreadCount(options.num_threads)) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  PublishMemoryGauges();
}

StatusOr<MiningSession> MiningSession::Open(const std::string& path,
                                            const SessionOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateSessionOptions(options));
  const size_t shards =
      ShardedTransactionDatabase::ResolveShardCount(options.num_shards);
  StatusOr<TransactionDatabase> rows = Status::Internal("not loaded");
  {
    Phase load_phase(MetricsRegistry::Global(), "io.load", -1,
                     static_cast<int64_t>(shards));
    if (!options.named_items) {
      CORRMINE_ASSIGN_OR_RETURN(io::TransactionFileFormat format,
                                io::DetectTransactionFileFormat(path));
      if (format == io::TransactionFileFormat::kBinary) {
        auto index = std::make_unique<ShardedCountProvider>(ItemId{0}, shards);
        CORRMINE_RETURN_NOT_OK(io::LoadBinaryIntoIndex(path, index.get()));
        return MiningSession(std::move(index), ItemDictionary(), options);
      }
    }
    rows = LoadRows(path, options);
  }
  CORRMINE_RETURN_NOT_OK(rows.status());
  return FromDatabase(*rows, options);
}

StatusOr<MiningSession> MiningSession::FromDatabase(
    const TransactionDatabase& db, const SessionOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateSessionOptions(options));
  const size_t shards =
      ShardedTransactionDatabase::ResolveShardCount(options.num_shards);
  auto index = std::make_unique<ShardedCountProvider>(db.num_items(), shards);
  {
    Phase build_phase(MetricsRegistry::Global(), "session.build_index", -1,
                      static_cast<int64_t>(shards),
                      static_cast<int64_t>(db.num_baskets()));
    index->Append(db);
  }
  return MiningSession(std::move(index), db.dictionary(), options);
}

StatusOr<MiningSession> MiningSession::FromShardedDatabase(
    ShardedTransactionDatabase db, const SessionOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateSessionOptions(options));
  std::unique_ptr<ShardedCountProvider> index;
  {
    Phase build_phase(MetricsRegistry::Global(), "session.build_index", -1,
                      static_cast<int64_t>(db.num_shards()),
                      static_cast<int64_t>(db.num_baskets()));
    index = std::make_unique<ShardedCountProvider>(db);
  }
  return MiningSession(std::move(index), std::move(db.dictionary()), options);
}

// Memory bookkeeping shared by every Mine* entry point: refreshed after each
// run so a stats dump taken at any point reflects the high-water mark. (The
// provider keeps "mem.shard_index_bytes" current itself.)
void MiningSession::PublishMemoryGauges() const {
  MetricsRegistry::Global()
      .GetGauge("mem.peak_rss_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
}

TransactionDatabase MiningSession::Flatten() const {
  TransactionDatabase rows = ReadRows(0, num_baskets());
  rows.dictionary() = dictionary_;
  return rows;
}

Status MiningSession::AppendBatch(const TransactionDatabase& chunk) {
  Phase phase(MetricsRegistry::Global(), "session.append", -1,
              static_cast<int64_t>(chunk.num_baskets()),
              static_cast<int64_t>(chunk.num_items()));
  provider_->Append(chunk);
  PublishMemoryGauges();
  return Status::OK();
}

StatusOr<MiningResult> MiningSession::Mine(MinerOptions options) const {
  Phase phase(MetricsRegistry::Global(), "session.mine", -1,
              static_cast<int64_t>(num_shards()),
              static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  auto result = MineCorrelations(provider(), num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<MiningResult> MiningSession::MineRandomWalk(
    RandomWalkOptions options) const {
  Phase phase(MetricsRegistry::Global(), "session.mine_random_walk", -1,
              static_cast<int64_t>(num_shards()),
              static_cast<int64_t>(threads_));
  options.miner.num_threads = threads_;
  options.miner.pool = pool_.get();
  auto result = MineCorrelationsRandomWalk(provider(), num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<std::vector<FrequentItemset>> MiningSession::MineFrequent(
    AprioriOptions options) const {
  Phase phase(MetricsRegistry::Global(), "session.mine_frequent", -1,
              static_cast<int64_t>(num_shards()),
              static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  auto result = MineFrequentItemsets(provider(), num_items(), options);
  PublishMemoryGauges();
  return result;
}

StatusOr<std::vector<FrequentItemset>> MiningSession::MineFrequentEclat(
    EclatOptions options) const {
  Phase phase(MetricsRegistry::Global(), "session.mine_frequent_eclat", -1,
              static_cast<int64_t>(num_shards()),
              static_cast<int64_t>(threads_));
  options.num_threads = threads_;
  options.pool = pool_.get();
  auto result = MineFrequentItemsetsEclat(*provider_, options);
  PublishMemoryGauges();
  return result;
}

}  // namespace corrmine
