#include "mining/partition.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/phase.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "io/column_store.h"
#include "io/stream_reader.h"
#include "itemset/count_provider.h"
#include "itemset/counting_column.h"

namespace corrmine {

StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsPartition(
    const TransactionDatabase& db, const PartitionOptions& options,
    PartitionStats* stats) {
  if (db.num_baskets() == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }
  if (!(options.min_support_fraction > 0.0 &&
        options.min_support_fraction <= 1.0)) {
    return Status::InvalidArgument("min_support_fraction must be in (0,1]");
  }
  if (options.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  size_t n = db.num_baskets();
  size_t num_partitions =
      std::min<size_t>(static_cast<size_t>(options.num_partitions), n);

  // Phase 1: mine each horizontal chunk at the same fractional threshold.
  std::unordered_set<Itemset, ItemsetHasher> candidate_set;
  size_t chunk = (n + num_partitions - 1) / num_partitions;
  for (size_t p = 0; p < num_partitions; ++p) {
    size_t begin = p * chunk;
    size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    TransactionDatabase part(db.num_items());
    for (size_t row = begin; row < end; ++row) {
      CORRMINE_RETURN_NOT_OK(part.AddBasket(db.basket(row)));
    }
    BitmapCountProvider part_provider(part);
    AprioriOptions local;
    local.min_support_fraction = options.min_support_fraction;
    local.max_level = options.max_level;
    CORRMINE_ASSIGN_OR_RETURN(
        std::vector<FrequentItemset> local_frequent,
        MineFrequentItemsets(part_provider, db.num_items(), local));
    for (FrequentItemset& f : local_frequent) {
      candidate_set.insert(std::move(f.itemset));
    }
  }

  // Phase 2: one global pass over the union of local winners.
  uint64_t min_count = static_cast<uint64_t>(std::ceil(
      options.min_support_fraction * static_cast<double>(n) - 1e-9));
  if (min_count == 0) min_count = 1;
  BitmapCountProvider provider(db);
  std::vector<FrequentItemset> result;
  uint64_t false_candidates = 0;
  for (const Itemset& candidate : candidate_set) {
    uint64_t count = provider.CountAllPresent(candidate);
    if (count >= min_count) {
      result.push_back(FrequentItemset{candidate, count});
    } else {
      ++false_candidates;
    }
  }
  if (stats != nullptr) {
    stats->global_candidates = candidate_set.size();
    stats->false_candidates = false_candidates;
  }
  std::sort(result.begin(), result.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.itemset.size() != b.itemset.size()) {
                return a.itemset.size() < b.itemset.size();
              }
              return a.itemset < b.itemset;
            });
  return result;
}

namespace {

/// The out-of-core walk's count provider. Each of the miner's batches (one
/// per level) is answered without ever holding the dataset:
///
///   - single items from the exact item counts the spill accumulated;
///   - every larger query by one sweep over the partition files. The
///     sweep builds one BlockedCountPlan; up to `admitted` partitions count
///     at a time, each mapped, counted with CountColumnBatch and unmapped,
///     and the per-slot partial sums reduce in slot order — exact
///     integers, identical for any schedule.
///
/// The batch hook cannot return a Status, so the first shard that fails to
/// open or map latches its error here: that batch answers zeros, later
/// sweeps are skipped, and the caller discards the walk's result. The
/// partitions are counted below the CountProvider interface, so the
/// count_provider.* counters tick exactly as they do for the in-memory
/// mine. Not thread-safe: the miner issues batches from its coordinating
/// thread.
class SweepCountProvider : public CountProvider {
 public:
  /// `paths`, `item_counts` and `registry` are borrowed and must outlive
  /// the provider; the sweep phases are recorded into `registry`.
  SweepCountProvider(const std::vector<std::string>& paths,
                     const std::vector<uint64_t>& item_counts,
                     uint64_t num_baskets, size_t admitted,
                     MetricsRegistry& registry)
      : paths_(paths),
        item_counts_(item_counts),
        num_baskets_(num_baskets),
        admitted_(admitted),
        registry_(registry) {}

  uint64_t num_baskets() const override { return num_baskets_; }

  /// The first sweep failure; OK when every sweep counted.
  const Status& error() const { return error_; }
  /// Queries answered from the item counts.
  uint64_t item_queries() const { return item_queries_; }
  /// Queries the sweeps counted, and the wall seconds spent inside sweeps.
  uint64_t swept_queries() const { return swept_queries_; }
  double sweep_seconds() const { return sweep_seconds_; }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override {
    uint64_t count = 0;
    CountAllPresentBatchImpl(std::span<const Itemset>(&s, 1),
                             std::span<uint64_t>(&count, 1), nullptr);
    return count;
  }

  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override {
    size_t singles = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].size() != 1) continue;
      const ItemId item = queries[i].item(0);
      counts[i] = item < item_counts_.size() ? item_counts_[item] : 0;
      ++singles;
    }
    item_queries_ += singles;
    if (singles == queries.size()) return;
    if (singles == 0) {
      Sweep(queries, counts, pool);
      return;
    }
    // A batch that mixes sizes: sweep only its larger queries.
    std::vector<size_t> positions;
    std::vector<Itemset> larger;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].size() == 1) continue;
      positions.push_back(i);
      larger.push_back(queries[i]);
    }
    std::vector<uint64_t> larger_counts(larger.size());
    Sweep(larger, larger_counts, pool);
    for (size_t j = 0; j < positions.size(); ++j) {
      counts[positions[j]] = larger_counts[j];
    }
  }

 private:
  void Sweep(std::span<const Itemset> queries, std::span<uint64_t> counts,
             ThreadPool* pool) const {
    std::fill(counts.begin(), counts.end(), uint64_t{0});
    if (!error_.ok()) return;
    Phase sweep_phase(registry_, "outofcore.sweep", -1, -1,
                      static_cast<int64_t>(queries.size()));
    const BlockedCountPlan plan = BlockedCountPlan::Build(queries);
    const size_t num_parts = paths_.size();
    const size_t grain = (num_parts + admitted_ - 1) / admitted_;
    const size_t slot_bound = ParallelForSlotBound(pool, num_parts, grain);
    std::vector<std::vector<uint64_t>> slot_totals(
        slot_bound, std::vector<uint64_t>(queries.size(), 0));
    std::vector<std::vector<uint64_t>> slot_partial(
        slot_bound, std::vector<uint64_t>(queries.size(), 0));
    const Status status = ParallelForSlots(
        pool, num_parts, grain,
        [&](size_t slot, size_t begin, size_t end) -> Status {
          for (size_t p = begin; p < end; ++p) {
            Phase part_phase(registry_, "outofcore.count_partition", -1,
                             static_cast<int64_t>(p),
                             static_cast<int64_t>(queries.size()));
            CORRMINE_ASSIGN_OR_RETURN(
                std::unique_ptr<io::MappedColumnShard> shard,
                io::MappedColumnShard::Open(paths_[p]));
            CountColumnBatch(plan, *shard, slot_partial[slot], pool);
            std::vector<uint64_t>& acc = slot_totals[slot];
            for (size_t i = 0; i < acc.size(); ++i) {
              acc[i] += slot_partial[slot][i];
            }
          }
          return Status::OK();
        });
    if (!status.ok()) {
      error_ = status;
      return;
    }
    for (const std::vector<uint64_t>& acc : slot_totals) {
      for (size_t i = 0; i < counts.size(); ++i) counts[i] += acc[i];
    }
    swept_queries_ += queries.size();
    sweep_seconds_ += static_cast<double>(sweep_phase.Stop()) / 1e9;
  }

  const std::vector<std::string>& paths_;
  const std::vector<uint64_t>& item_counts_;
  const uint64_t num_baskets_;
  const size_t admitted_;
  MetricsRegistry& registry_;
  // Bookkeeping under const counting, written by the coordinating thread.
  mutable Status error_;
  mutable uint64_t item_queries_ = 0;
  mutable uint64_t swept_queries_ = 0;
  mutable double sweep_seconds_ = 0.0;
};

}  // namespace

StatusOr<MiningResult> MineCorrelationsOutOfCore(
    const std::string& path, const OutOfCoreMinerOptions& options,
    OutOfCoreStats* stats) {
  if (options.memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory budget must be positive");
  }
  if (options.partition_budget_bytes > options.memory_budget_bytes) {
    return Status::InvalidArgument(
        "partition budget exceeds the memory budget");
  }
  // getrusage peak RSS is process-monotone; snapshot it so the budget
  // warning below only fires when THIS mine raised the peak (an earlier,
  // bigger run in the same process would otherwise trip it forever).
  const uint64_t peak_on_entry = PeakRssBytes();
  const std::string spill_dir =
      options.spill_dir.empty() ? path + ".spill" : options.spill_dir;
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    return Status::IOError("cannot create spill dir " + spill_dir + ": " +
                           ec.message());
  }

  MetricsRegistry& registry = options.miner.metrics != nullptr
                                  ? *options.miner.metrics
                                  : MetricsRegistry::Global();
  registry.GetGauge("mem.memory_budget_bytes")
      ->Set(static_cast<int64_t>(options.memory_budget_bytes));

  // Partition sizing: closing a partition briefly holds the row vectors
  // (~R bytes of uint32), the built columns (<= R payload), and the
  // serialized file string (~payload) at once — about 3x the accumulated
  // row bytes — and the budget must also cover the base process. The
  // budget/6 default leaves half the budget for everything else; explicit
  // --partition-budget values are taken verbatim (validated above).
  const uint64_t partition_row_bytes =
      options.partition_budget_bytes != 0
          ? options.partition_budget_bytes
          : std::max<uint64_t>(options.memory_budget_bytes / 6,
                               uint64_t{1} << 20);

  // Thread plumbing mirrors MineCorrelations: one pool serves the walk and
  // its sweeps, so thread-count semantics (0 = hardware) resolve once.
  const int threads = ThreadPool::ResolveThreadCount(options.miner.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.miner.pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads - 1);
    pool = owned_pool.get();
  }
  MinerOptions base = options.miner;
  base.num_threads = threads;
  base.pool = pool;

  // Sweep width: cap the partitions counted concurrently so admitted x
  // per-partition budget stays inside half the memory budget (the other
  // half covers the base process and the walk). At the default partition
  // budget this admits min(threads, 3); a partition budget equal to the
  // memory budget forces admitted = 1 — one partition mapped at a time.
  const size_t admitted =
      pool == nullptr
          ? size_t{1}
          : static_cast<size_t>(std::clamp<uint64_t>(
                options.memory_budget_bytes / (2 * partition_row_bytes), 1,
                static_cast<uint64_t>(threads)));
  registry.GetGauge("outofcore.admitted_partitions")
      ->Set(static_cast<int64_t>(admitted));

  // Spill files are removed on EVERY exit path (including mid-walk error
  // returns) unless the caller asked to keep them; paths register before
  // the write so partial files from failed writes are removed too.
  struct SpillGuard {
    std::vector<std::string> paths;
    std::string dir;
    bool keep = false;
    ~SpillGuard() {
      if (keep) return;
      std::error_code guard_ec;
      for (const std::string& p : paths) {
        std::filesystem::remove(p, guard_ec);
      }
      std::filesystem::remove(dir, guard_ec);  // only succeeds when empty
    }
  } guard;
  guard.dir = spill_dir;
  guard.keep = options.keep_spill;

  // --- Spill: one streaming pass over the input builds a CCS v2 file per
  // partition budget of rows and counts every item exactly on the way.
  std::vector<std::string> part_paths;
  std::vector<uint64_t> item_counts;
  std::vector<std::vector<uint32_t>> rows_by_item;
  uint64_t local_rows = 0;
  uint64_t local_bytes = 0;
  uint64_t total_rows = 0;
  uint64_t spilled_raw = 0;
  uint64_t spilled_encoded = 0;

  const auto close_partition = [&]() -> Status {
    if (local_rows == 0) return Status::OK();
    const size_t index = part_paths.size();
    Phase phase(registry, "outofcore.spill_partition", -1,
                static_cast<int64_t>(index), static_cast<int64_t>(local_rows));
    CompressedVerticalIndex vindex(local_rows, std::move(rows_by_item));
    rows_by_item = {};
    std::string part_path =
        spill_dir + "/part-" + std::to_string(index) + ".ccs";
    guard.paths.push_back(part_path);
    io::ColumnShardWriteStats wstats;
    CORRMINE_RETURN_NOT_OK(
        io::WriteColumnShardFile(vindex, part_path, {}, &wstats));
    spilled_raw += wstats.raw_payload_bytes;
    spilled_encoded += wstats.payload_bytes;
    part_paths.push_back(std::move(part_path));
    local_rows = 0;
    local_bytes = 0;
    return Status::OK();
  };

  ItemId num_items = 0;
  double spill_seconds = 0.0;
  {
    Phase spill_phase(registry, "outofcore.spill");
    CORRMINE_RETURN_NOT_OK(io::StreamTransactionFile(
        path, &num_items, [&](std::vector<ItemId> basket) -> Status {
          // Text baskets may repeat or reorder ids; a column holds each
          // row once, and the item counts must agree with it.
          if (std::adjacent_find(basket.begin(), basket.end(),
                                 std::greater_equal<ItemId>()) !=
              basket.end()) {
            std::sort(basket.begin(), basket.end());
            basket.erase(std::unique(basket.begin(), basket.end()),
                         basket.end());
          }
          if (!basket.empty() && basket.back() >= rows_by_item.size()) {
            rows_by_item.resize(static_cast<size_t>(basket.back()) + 1);
            if (item_counts.size() < rows_by_item.size()) {
              item_counts.resize(rows_by_item.size(), 0);
            }
          }
          for (const ItemId item : basket) {
            rows_by_item[item].push_back(static_cast<uint32_t>(local_rows));
            ++item_counts[item];
          }
          local_bytes += basket.size() * sizeof(uint32_t);
          ++local_rows;
          ++total_rows;
          return local_bytes >= partition_row_bytes ? close_partition()
                                                    : Status::OK();
        }));
    CORRMINE_RETURN_NOT_OK(close_partition());
    spill_seconds = static_cast<double>(spill_phase.Stop()) / 1e9;
  }
  // Phase-boundary peak-RSS samples (here and after the walk): the budget
  // gate in bench_outofcore cares *when* the high-water mark happened,
  // not just its final value.
  registry.GetGauge("mem.peak_rss_spill_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
  if (total_rows == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }

  // --- Walk: the Figure 1 walk under the caller's unmodified mining
  // options, over exact counts — it asks exactly the in-memory walk's
  // questions, and each level's batch costs one sweep of the partitions.
  SweepCountProvider sweeps(part_paths, item_counts, total_rows, admitted,
                            registry);
  StatusOr<MiningResult> result = MineCorrelations(sweeps, num_items, base);
  if (!sweeps.error().ok()) return sweeps.error();
  registry.GetGauge("mem.peak_rss_walk_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));

  registry.GetCounter("outofcore.partitions")->Add(part_paths.size());
  registry.GetCounter("outofcore.candidate_queries")
      ->Add(sweeps.swept_queries());
  registry.GetCounter("outofcore.memo_misses")->Add(sweeps.swept_queries());
  registry.GetGauge("mem.spilled_payload_bytes")
      ->Set(static_cast<int64_t>(spilled_raw));
  registry.GetGauge("column.spill_bytes")
      ->Set(static_cast<int64_t>(spilled_encoded));
  registry.GetGauge("column.spill_raw_bytes")
      ->Set(static_cast<int64_t>(spilled_raw));
  registry.GetGauge("column.spill_ratio_x1000")
      ->Set(spilled_raw == 0
                ? int64_t{1000}
                : static_cast<int64_t>(spilled_encoded * 1000 /
                                       spilled_raw));
  if (stats != nullptr) {
    stats->num_baskets = total_rows;
    stats->num_items = num_items;
    stats->partitions = part_paths.size();
    stats->spilled_payload_bytes = spilled_raw;
    stats->spilled_encoded_bytes = spilled_encoded;
    stats->admitted = static_cast<int>(admitted);
    stats->spill_pass1_seconds = spill_seconds;
    stats->pass2_seconds = sweeps.sweep_seconds();
    stats->candidate_queries = sweeps.swept_queries();
    stats->memo_hits = sweeps.item_queries();
    stats->memo_misses = sweeps.swept_queries();
  }

  const uint64_t peak = PeakRssBytes();
  if (result.ok() && peak > peak_on_entry &&
      peak > options.memory_budget_bytes +
                 options.memory_budget_bytes / 10) {
    CORRMINE_LOG(kWarning) << "out-of-core peak RSS " << peak
                           << " exceeded memory budget "
                           << options.memory_budget_bytes << " by more than 10%";
  }
  return result;
}

}  // namespace corrmine
