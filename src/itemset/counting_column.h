#ifndef CORRMINE_ITEMSET_COUNTING_COLUMN_H_
#define CORRMINE_ITEMSET_COUNTING_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "itemset/bitmap.h"
#include "itemset/itemset.h"
#include "itemset/kernels.h"
#include "itemset/transaction_database.h"

namespace corrmine {

/// The unified compressed counting column (DESIGN.md §12): one basket set
/// stored Roaring-style. The row space is chunked into 2^16-row blocks and
/// each non-empty block keeps whichever container representation is
/// smallest for its cardinality and clustering:
///
///   array  — sorted 16-bit offsets            (2 bytes/row; sparse)
///   dense  — 8 KiB bitset, 1024 words         (fixed; popular blocks)
///   run    — (start, length-1) 16-bit pairs   (4 bytes/run; clustered)
///
/// Promotion and demotion are cardinality-driven: construction and
/// intersection both re-pick the minimum-byte representation, so a column
/// never silently stays in a shape the data outgrew. Market-basket item
/// columns are typically 0.1–5% dense, where arrays cut memory an order of
/// magnitude; generated/sorted corpora collapse further into runs.
///
/// All counting loops route through the active CountingKernels table
/// (kernels.h): dense x dense words via and_count/and_count_into, array x
/// array via array_intersect_count galloping, array x dense via
/// array_dense_count probes. Run-container paths are shared scalar code
/// (identical in every TU). Work accounting — ColumnOpStats, in logical
/// data units derived from container shapes only — is ISA-invariant, so
/// the "kernel.column_*" counters diff clean between forced-scalar and
/// dispatched runs.
///
/// Payloads are either owned (built in memory) or *views* into externally
/// owned bytes — the mmap-backed shard files of io/column_store.h hand out
/// view-backed columns whose payload pages fault in lazily. View-backed
/// columns are immutable.
class CountingColumn {
 public:
  enum class ContainerKind : uint8_t { kArray = 0, kDense = 1, kRun = 2 };

  /// Rows per container block and the dense payload geometry.
  static constexpr int kBlockBits = 16;
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;  // 65536
  static constexpr size_t kWordsPerDense = kBlockSize / 64;      // 1024
  /// Cardinality where a sorted array (2 bytes/row) stops beating the
  /// fixed 8 KiB dense bitset.
  static constexpr uint32_t kDenseThreshold = 4096;

  /// One container, exposed for serialization (io/column_store.h) and
  /// white-box tests. `u16` holds array offsets or run pairs; `words` the
  /// dense payload; exactly one of the two is non-empty (except for kind
  /// kDense where `u16` is empty and vice versa).
  struct ContainerView {
    uint32_t key = 0;  // block index: rows [key << 16, (key+1) << 16)
    ContainerKind kind = ContainerKind::kArray;
    uint32_t count = 0;  // set rows in this block
    std::span<const uint16_t> u16;
    std::span<const uint64_t> words;
  };

  /// Empty column over zero rows.
  CountingColumn() = default;

  /// Rows must be strictly increasing and below `num_rows`.
  CountingColumn(size_t num_rows, const std::vector<uint32_t>& rows);

  /// Conversion from a plain bitmap (used by tests and adapters).
  static CountingColumn FromBitmap(const Bitmap& bitmap);

  /// Rebuilds a column over externally owned container payloads (the mmap
  /// path). The backing bytes must outlive the column; payload spans must
  /// match each view's kind and count.
  static CountingColumn FromContainerViews(size_t num_rows,
                                           std::span<const ContainerView> views);

  size_t num_rows() const { return num_rows_; }

  /// Membership test for one row (binary search within the row's block).
  bool Test(uint32_t row) const;

  /// Number of set rows (precomputed; O(1)).
  uint64_t Count() const { return total_count_; }

  /// Popcount of (this AND other) without materializing the intersection.
  /// The columns must cover the same row count. `stats` (optional)
  /// accumulates ISA-invariant work units.
  uint64_t AndCount(const CountingColumn& other,
                    ColumnOpStats* stats = nullptr) const;

  /// Materialized intersection, re-optimized container by container
  /// (dense results below kDenseThreshold demote to arrays; run x run
  /// stays a run list). The prefix-blocked column executor folds group
  /// prefixes through this.
  CountingColumn And(const CountingColumn& other,
                     ColumnOpStats* stats = nullptr) const;

  /// Fused form mirroring Bitmap::AndCountInto: *dst = a AND b, returning
  /// dst->Count() — one call site shape for both storage layers.
  static uint64_t AndCountInto(const CountingColumn& a,
                               const CountingColumn& b, CountingColumn* dst,
                               ColumnOpStats* stats = nullptr);

  /// Resident heap bytes (owned payloads + container bookkeeping). View
  /// payloads are not counted — they live in the mapped file.
  size_t MemoryBytes() const;

  /// Decompresses back to sorted row ids (tests, adapters, spill).
  std::vector<uint32_t> ToRows() const;

  size_t num_containers() const { return containers_.size(); }
  ContainerView container_view(size_t i) const;

 private:
  struct Container {
    uint32_t key = 0;
    ContainerKind kind = ContainerKind::kArray;
    uint32_t count = 0;
    // Exactly one payload source: owned vectors, or a borrowed view into
    // externally owned bytes (mmap). Accessors below pick whichever is
    // populated, so copies of view-backed columns never re-anchor.
    std::vector<uint16_t> owned_u16;
    std::vector<uint64_t> owned_words;
    const uint16_t* view_u16 = nullptr;
    size_t view_u16_len = 0;
    const uint64_t* view_words = nullptr;

    std::span<const uint16_t> u16() const {
      if (view_u16 != nullptr) {
        return std::span<const uint16_t>(view_u16, view_u16_len);
      }
      return std::span<const uint16_t>(owned_u16);
    }
    const uint64_t* words() const {
      return view_words != nullptr ? view_words : owned_words.data();
    }
  };

  /// Builds the minimum-byte container for one block's sorted offsets.
  static Container MakeContainer(uint32_t key,
                                 std::span<const uint16_t> offsets);
  /// Intersection count of one aligned container pair.
  static uint64_t AndCountContainers(const Container& a, const Container& b,
                                     ColumnOpStats* stats);
  /// Materialized intersection of one aligned container pair; returns a
  /// container with count == 0 when the blocks are disjoint.
  static Container AndContainers(const Container& a, const Container& b,
                                 ColumnOpStats* stats);
  /// Decodes one container into sorted in-block offsets.
  static void ContainerOffsets(const Container& c,
                               std::vector<uint16_t>* out);

  std::vector<Container> containers_;  // sorted by key
  size_t num_rows_ = 0;
  uint64_t total_count_ = 0;
};

/// A set of counting columns over one row space — the abstraction the
/// prefix-blocked column executor counts against. Implemented by the
/// in-memory CompressedVerticalIndex below and by io/column_store.h's
/// mmap-backed MappedColumnShard.
class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  virtual size_t num_rows() const = 0;
  virtual ItemId num_columns() const = 0;

  /// Column of `item`. Items at or past num_columns() resolve to a shared
  /// empty column over num_rows() rows (partition shards may have seen a
  /// smaller item space than the whole dataset).
  virtual const CountingColumn& column(ItemId item) const = 0;
};

/// CCS v2 block codec (io/column_store.h): the run-aware compressed
/// encoding of a u16 container payload. Sorted array offsets become
/// first-value + delta varints (sorted/clustered corpora have small gaps,
/// so most entries shrink from 2 bytes to 1); run payloads become
/// start-delta + length varints. Dense word payloads are never
/// varint-encoded — 8 KiB of bitset words has no exploitable order. The
/// writer applies a min-byte rule per container (encoded vs raw), so the
/// codec only ever shrinks a file.
///
/// Encodes `payload` (the container_view u16 span: sorted offsets for
/// kArray, (start, length-1) pairs for kRun) appending to `*out`.
void EncodeU16DeltaVarint(CountingColumn::ContainerKind kind,
                          std::span<const uint16_t> payload,
                          std::string* out);

/// Decodes `data[0, len)` back into the exact u16 payload sequence,
/// validating monotonicity and u16 range against the container `count`
/// recorded in the shard directory (the number of set rows). Arrays
/// decode exactly `count` offsets; runs decode (start, length-1) pairs
/// until the bytes are exhausted and validate that the run lengths sum
/// to `count` (the run count itself is not stored).
Status DecodeU16DeltaVarint(CountingColumn::ContainerKind kind,
                            const uint8_t* data, size_t len, size_t count,
                            std::vector<uint16_t>* out);

/// Scalar reference count: fold the itemset's columns with And/AndCount
/// (k == 1 is a stored count; k == 2 a fused AndCount).
uint64_t CountAllPresentColumns(const ColumnSource& source, const Itemset& s,
                                ColumnOpStats* stats = nullptr);

/// The compressed peer of the bitmap stripe executor (kernels.h
/// ExecuteStripes), group-major: executes
/// plan.groups[group_begin..group_end) against a column source, writing
/// each answered query's count into `counts` (indexed by query slot;
/// counts.size() == plan.num_queries). Size-1 prefixes alias the item
/// column; larger prefixes materialize the prefix intersection once per
/// group and stream every extension column against it. Exact integers for
/// any group partition, so callers parallelize over disjoint ranges.
void ExecuteBlockedGroupsColumns(const BlockedCountPlan& plan,
                                 size_t group_begin, size_t group_end,
                                 const ColumnSource& source,
                                 std::span<uint64_t> counts,
                                 ColumnOpStats* stats);

/// Counts every query of `plan` against `source` into `counts` (size
/// plan.num_queries) — the column peer of CountBlockedBatch, behind the
/// out-of-core sweep's per-partition counts. Blocks of 64 plan groups are
/// the tasks of one ParallelFor on `pool` (nullptr runs inline); groups
/// own disjoint query slots, so every slot is written once and the result
/// is identical for any pool. Each block is a "column.count_block" trace
/// span, and its work goes to the "kernel.column_*" counters.
void CountColumnBatch(const BlockedCountPlan& plan, const ColumnSource& source,
                      std::span<uint64_t> counts, ThreadPool* pool);

/// Per-item counting columns for a transaction database (the compressed
/// analogue of VerticalIndex).
class CompressedVerticalIndex : public ColumnSource {
 public:
  explicit CompressedVerticalIndex(const TransactionDatabase& db);

  /// Builds directly from per-item sorted row lists (the out-of-core spill
  /// pass constructs partitions this way, without a TransactionDatabase).
  CompressedVerticalIndex(size_t num_baskets,
                          std::vector<std::vector<uint32_t>> item_rows);

  size_t num_baskets() const { return num_baskets_; }
  const CountingColumn& item_bitmap(ItemId item) const {
    return columns_[item];
  }

  /// Baskets containing all items of `s` (kernel-dispatched column folds).
  uint64_t CountAllPresent(const Itemset& s) const;

  size_t MemoryBytes() const;

  // ColumnSource:
  size_t num_rows() const override { return num_baskets_; }
  ItemId num_columns() const override {
    return static_cast<ItemId>(columns_.size());
  }
  const CountingColumn& column(ItemId item) const override;

 private:
  std::vector<CountingColumn> columns_;
  CountingColumn empty_;  // for items past the stored column range
  size_t num_baskets_ = 0;
};

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_COUNTING_COLUMN_H_
