#include "mining/partition.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <span>
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

/// Spill files are removed on every exit path (mid-walk error returns
/// included) unless the caller asked to keep them. Paths register before
/// their file is written, so partial files from failed writes go too.
struct SpillGuard {
  std::vector<std::string> paths;
  std::string dir;
  bool keep = false;

  ~SpillGuard() {
    if (keep) return;
    std::error_code ec;
    for (const std::string& p : paths) std::filesystem::remove(p, ec);
    std::filesystem::remove(dir, ec);  // only succeeds when empty
  }
};

/// One partition's baskets as the spill reader collects them: each item's
/// rows as 16-bit offsets within 2^16-row blocks and, at every block
/// boundary the partition crosses, the offset count of each item that has
/// rows by then — together what CountingColumn::FromBlockOffsets takes.
/// The reader reuses two buffers. What a buffer keeps between partitions
/// follows the last partition it held, however the item ids drift:
/// FreeAbsent frees the vectors of items the full partition does not use,
/// and Clear keeps an item's capacity only while that partition used at
/// least half of it.
struct PartitionBuffer {
  std::vector<std::vector<uint16_t>> offsets;  // by item
  /// The items with rows here, in the order of their first row, and each
  /// one's place in that order (valid while the item has rows).
  std::vector<ItemId> items;
  std::vector<uint32_t> slot;  // by item
  /// At each block boundary crossed, the offset counts of the items that
  /// had rows by then, in `items` order; boundary b's counts start at
  /// ends[boundary_begin[b]].
  std::vector<uint32_t> ends;
  std::vector<uint32_t> boundary_begin;
  /// One past the largest item of this partition: its column count.
  ItemId num_columns = 0;
  uint64_t rows = 0;
  /// Bytes the partition's rows would take as uint32 row ids, 4 per item
  /// occurrence: what the partition budget is charged.
  uint64_t row_bytes = 0;

  /// Appends one basket (sorted, distinct items) as the next row.
  void Add(std::span<const ItemId> basket) {
    if (rows != 0 && rows % CountingColumn::kBlockSize == 0) {
      // A block boundary: record each present item's offset count once,
      // here, rather than test each occurrence's block.
      boundary_begin.push_back(static_cast<uint32_t>(ends.size()));
      for (const ItemId item : items) {
        ends.push_back(static_cast<uint32_t>(offsets[item].size()));
      }
    }
    if (basket.empty()) {
      ++rows;
      return;
    }
    const ItemId top = basket.back();
    if (top >= offsets.size()) {
      offsets.resize(static_cast<size_t>(top) + 1);
      slot.resize(static_cast<size_t>(top) + 1);
    }
    num_columns = std::max<ItemId>(num_columns, top + 1);
    const uint16_t offset =
        static_cast<uint16_t>(rows & (CountingColumn::kBlockSize - 1));
    for (const ItemId item : basket) {
      std::vector<uint16_t>& item_offsets = offsets[item];
      if (item_offsets.empty()) {
        slot[item] = static_cast<uint32_t>(items.size());
        items.push_back(item);
      }
      item_offsets.push_back(offset);
    }
    row_bytes += basket.size() * sizeof(uint32_t);
    ++rows;
  }

  /// `item`'s offset count at each block boundary crossed, into `out`
  /// (empty for an item without rows).
  void BlockEnds(ItemId item, std::vector<uint32_t>* out) const {
    out->clear();
    if (offsets[item].empty()) return;
    for (size_t b = 0; b < boundary_begin.size(); ++b) {
      const size_t end =
          b + 1 < boundary_begin.size() ? boundary_begin[b + 1] : ends.size();
      const size_t at = boundary_begin[b] + slot[item];
      // An item whose first row comes after boundary b had none before it.
      out->push_back(at < end ? ends[at] : 0);
    }
  }

  /// Heap bytes the buffer holds, counted by capacity.
  uint64_t HeldBytes() const {
    uint64_t bytes = offsets.capacity() * sizeof(offsets[0]) +
                     (items.capacity() + slot.capacity() + ends.capacity() +
                      boundary_begin.capacity()) *
                         sizeof(uint32_t);
    for (const std::vector<uint16_t>& v : offsets) {
      bytes += v.capacity() * sizeof(uint16_t);
    }
    return bytes;
  }

  /// Frees the vectors of items without rows in this (full) partition, so
  /// that its close holds only its own items.
  void FreeAbsent() {
    for (std::vector<uint16_t>& v : offsets) {
      if (v.empty() && v.capacity() != 0) std::vector<uint16_t>().swap(v);
    }
  }

  /// Empties the buffer for the next partition.
  void Clear() {
    for (std::vector<uint16_t>& v : offsets) {
      if (v.capacity() > 2 * v.size()) {
        std::vector<uint16_t>().swap(v);
      } else {
        v.clear();
      }
    }
    items.clear();
    ends.clear();
    boundary_begin.clear();
    num_columns = 0;
    rows = 0;
    row_bytes = 0;
  }
};

/// The spill's partition closes. The reader fills one PartitionBuffer;
/// HandOff closes it — builds each item's column, streams it into the one
/// ColumnShardWriter and writes part-<index>.ccs — as one task on the pool
/// while the reader fills the other buffer. At most one close is in
/// flight: HandOff first joins the previous one (help-first, so the reader
/// runs the task itself if no worker has taken it). Without a pool the
/// close runs inline. Close errors come back in partition order, from
/// HandOff or Join. The destructor joins, so no close outlives the buffers,
/// the writer or the SpillGuard declared before this object — on an error
/// return and on a std::bad_alloc from the reader alike.
class PartitionSpill {
 public:
  PartitionSpill(std::string dir, ThreadPool* pool, MetricsRegistry& registry,
                 SpillGuard& guard)
      : dir_(std::move(dir)),
        pool_(pool),
        registry_(registry),
        guard_(guard),
        in_flight_(std::make_shared<InFlight>()) {}

  // Only an error or exception path finds a close in flight here, and it
  // already carries the run's failure, so the close's Status is dropped.
  ~PartitionSpill() { (void)Join(); }

  PartitionSpill(const PartitionSpill&) = delete;
  PartitionSpill& operator=(const PartitionSpill&) = delete;

  /// The buffer the reader fills.
  PartitionBuffer& filling() { return buffers_[filling_]; }

  /// Closes the filling partition unless it is empty, and switches the
  /// reader to the other buffer. Returns the first close error so far.
  Status HandOff() {
    PartitionBuffer& part = buffers_[filling_];
    if (part.rows == 0) return Status::OK();
    CORRMINE_RETURN_NOT_OK(Join());
    // Both buffers are at their fullest here: the reader's and the other,
    // whose close has finished.
    output_.buffer_bytes =
        std::max(output_.buffer_bytes,
                 buffers_[0].HeldBytes() + buffers_[1].HeldBytes());
    // Every item's exact count is the sum of its partitions' row counts.
    std::vector<uint64_t>& item_counts = output_.item_counts;
    if (item_counts.size() < part.num_columns) {
      item_counts.resize(part.num_columns, 0);
    }
    for (ItemId item = 0; item < part.num_columns; ++item) {
      item_counts[item] += part.offsets[item].size();
    }
    const size_t index = output_.paths.size();
    std::string path = dir_ + "/part-" + std::to_string(index) + ".ccs";
    guard_.paths.push_back(path);
    output_.paths.push_back(path);
    part.FreeAbsent();
    filling_ ^= 1;
    buffers_[filling_].Clear();
    if (pool_ == nullptr) {
      io::ColumnShardWriteStats wstats;
      CORRMINE_RETURN_NOT_OK(Close(part, index, path, &wstats));
      Account(wstats);
      return Status::OK();
    }
    {
      std::lock_guard<std::mutex> lock(in_flight_->mu);
      in_flight_->running = true;
    }
    try {
      pool_->Submit([this, &part, index, path = std::move(path),
                     state = in_flight_] {
        io::ColumnShardWriteStats wstats;
        Status status =
            RunGuarded([&] { return Close(part, index, path, &wstats); });
        // Notify under the lock: the reader may free nothing it shares
        // with this task before the task lets go of the mutex.
        std::lock_guard<std::mutex> lock(state->mu);
        state->status = std::move(status);
        state->wstats = wstats;
        state->running = false;
        state->cv.notify_all();
      });
    } catch (const std::bad_alloc&) {
      std::lock_guard<std::mutex> lock(in_flight_->mu);
      in_flight_->running = false;
      return Status::ResourceExhausted("out of memory");
    }
    return Status::OK();
  }

  /// Waits for the close in flight: its Status, or OK when none is.
  Status Join() {
    if (pool_ == nullptr) return Status::OK();
    InFlight& state = *in_flight_;
    pool_->HelpUntil(state.mu, state.cv, [&state] { return !state.running; });
    Status status;
    io::ColumnShardWriteStats wstats;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      status = std::move(state.status);
      state.status = Status::OK();
      wstats = state.wstats;
      state.wstats = {};
    }
    Account(wstats);
    return status;
  }

  /// What the spill leaves for the walk.
  struct Output {
    std::vector<std::string> paths;     // part-<index>.ccs, in order
    std::vector<uint64_t> item_counts;  // each item's baskets
    uint64_t raw_bytes = 0;             // v1-equivalent payload bytes
    uint64_t encoded_bytes = 0;         // payload bytes written
    uint64_t buffer_bytes = 0;          // the reader's buffers at most
  };

  /// Everything handed off so far; call after the last Join.
  Output TakeOutput() { return std::move(output_); }

 private:
  /// What the reader and the close task share; the task holds it by
  /// shared_ptr because it still touches it after the reader may wake.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool running = false;                // guarded by mu
    Status status;                       // guarded by mu
    io::ColumnShardWriteStats wstats;    // guarded by mu
  };

  /// Writes one partition: each item's column is built from the buffer,
  /// handed to the writer and released before the next is built.
  Status Close(const PartitionBuffer& part, size_t index,
               const std::string& path, io::ColumnShardWriteStats* wstats) {
    Phase phase(registry_, "outofcore.spill_partition", -1,
                static_cast<int64_t>(index),
                static_cast<int64_t>(part.rows));
    writer_.Begin(part.rows, part.num_columns);
    std::vector<uint32_t> block_ends;
    for (ItemId item = 0; item < part.num_columns; ++item) {
      part.BlockEnds(item, &block_ends);
      writer_.AddColumn(CountingColumn::FromBlockOffsets(
          part.rows, part.offsets[item], block_ends));
    }
    return writer_.Finish(path, wstats);
  }

  void Account(const io::ColumnShardWriteStats& wstats) {
    output_.raw_bytes += wstats.raw_payload_bytes;
    output_.encoded_bytes += wstats.payload_bytes;
  }

  const std::string dir_;
  ThreadPool* const pool_;
  MetricsRegistry& registry_;
  SpillGuard& guard_;
  PartitionBuffer buffers_[2];
  int filling_ = 0;
  io::ColumnShardWriter writer_;
  Output output_;
  std::shared_ptr<InFlight> in_flight_;
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

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("mem.memory_budget_bytes")
      ->Set(static_cast<int64_t>(options.memory_budget_bytes));

  // Partition sizing: the budget is charged 4 bytes per item occurrence,
  // what a partition's rows take as uint32 row ids. The reader keeps rows
  // as 16-bit block offsets in two buffers, the partition it fills and the
  // one whose close is in flight; with vector growth slack they hold about
  // 1.5 charges while the item set is stable, and at most the current and
  // previous partition of each, 4 charges, however the item ids drift
  // (mem.spill_buffer_bytes). The close adds one column at a time and the
  // writer's payload and directory buffers (at most the partition's raw
  // payload, about half its row bytes). The budget/6 default leaves room
  // for that, for the sweeps' admitted partitions and for the base
  // process; explicit --partition-budget values are taken verbatim
  // (validated above).
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

  SpillGuard guard;
  guard.dir = spill_dir;
  guard.keep = options.keep_spill;

  // --- Spill: one streaming pass over the input cuts a partition every
  // partition budget of rows; each full partition closes into a CCS v2
  // file on the pool behind the reader, and adds its rows to the exact
  // item counts.
  uint64_t total_rows = 0;
  ItemId num_items = 0;
  double spill_seconds = 0.0;
  PartitionSpill::Output spilled;
  {
    // The reader's buffers and the writer's go when the spill ends, before
    // the walk maps any partition.
    PartitionSpill spill(spill_dir, pool, registry, guard);
    Phase spill_phase(registry, "outofcore.spill");
    const Status read = io::StreamTransactionFile(
        path, &num_items, [&](std::vector<ItemId> basket) -> Status {
          // Text baskets may repeat or reorder ids; a column holds each
          // row once.
          if (std::adjacent_find(basket.begin(), basket.end(),
                                 std::greater_equal<ItemId>()) !=
              basket.end()) {
            std::sort(basket.begin(), basket.end());
            basket.erase(std::unique(basket.begin(), basket.end()),
                         basket.end());
          }
          PartitionBuffer& part = spill.filling();
          part.Add(basket);
          ++total_rows;
          return part.row_bytes >= partition_row_bytes ? spill.HandOff()
                                                       : Status::OK();
        });
    // The serial spill would have stopped at a failed close before reading
    // further, so the close in flight reports before the reader does.
    CORRMINE_RETURN_NOT_OK(spill.Join());
    CORRMINE_RETURN_NOT_OK(read);
    CORRMINE_RETURN_NOT_OK(spill.HandOff());
    CORRMINE_RETURN_NOT_OK(spill.Join());
    spill_seconds = static_cast<double>(spill_phase.Stop()) / 1e9;
    spilled = spill.TakeOutput();
  }
  const std::vector<std::string>& part_paths = spilled.paths;
  const uint64_t spilled_raw = spilled.raw_bytes;
  const uint64_t spilled_encoded = spilled.encoded_bytes;
  // Phase-boundary peak-RSS samples (here and after the walk): the budget
  // gate in bench_outofcore cares *when* the high-water mark happened,
  // not just its final value.
  registry.GetGauge("mem.peak_rss_spill_bytes")
      ->Set(static_cast<int64_t>(PeakRssBytes()));
  registry.GetGauge("mem.spill_buffer_bytes")
      ->Set(static_cast<int64_t>(spilled.buffer_bytes));
  if (total_rows == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }

  // --- Walk: the Figure 1 walk under the caller's unmodified mining
  // options, over exact counts — it asks exactly the in-memory walk's
  // questions, and each level's batch costs one sweep of the partitions.
  SweepCountProvider sweeps(part_paths, spilled.item_counts, total_rows,
                            admitted, registry);
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
