#ifndef CORRMINE_IO_COLUMN_STORE_H_
#define CORRMINE_IO_COLUMN_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "itemset/counting_column.h"

namespace corrmine::io {

/// CCS — the column-shard file format (DESIGN.md §12): one ColumnSource
/// (per-item hybrid counting columns over one row space) serialized
/// container-at-a-time for mmap-backed lazy loading. The fourth magic
/// byte is the format version; both are readable by MappedColumnShard:
///
///   "CCS1" / "CCS2"              4-byte magic (version in last byte)
///   payload_base                 8-byte LE file offset (4096-aligned)
///   varint num_rows
///   varint num_columns
///   per column:  varint num_containers
///     per container (v1): varint key · 1-byte kind · varint count
///                    · varint rel_offset (from payload_base, 8-aligned)
///                    · varint payload_bytes
///     per container (v2): varint key · 1-byte kind · 1-byte encoding
///                    · varint count · varint rel_offset · varint bytes
///   zero padding to payload_base
///   payload section              container payloads
///
/// v2 adds a per-container payload encoding, picked by min-byte rule at
/// write time:
///
///   0  raw           u16 LE array offsets / run pairs, u64 dense words
///   1  delta-varint  EncodeU16DeltaVarint of the u16 payload (arrays:
///                    first offset + gap varints; runs: start deltas +
///                    length varints). Never used for dense words.
///
/// The directory is tiny and parsed eagerly at open; raw payloads are
/// only ever touched through the container views handed to
/// CountingColumn, so the kernel faults pages in at access granularity.
/// Delta-varint payloads decode lazily: the first column(item) access
/// materializes that column's compressed containers (thread-safe under a
/// per-column mutex — sweep tasks hit one shard from many threads), so
/// an unqueried column still costs nothing beyond its directory entry.
/// payload_base is fixed-width (not varint) so the directory can be
/// sized before the base is known. Offsets are 8-byte aligned: every raw
/// payload type (uint16 arrays/runs, uint64 dense words) reads aligned.
inline constexpr char kColumnShardMagic[4] = {'C', 'C', 'S', '1'};
inline constexpr char kColumnShardMagicV2[4] = {'C', 'C', 'S', '2'};

/// Payload-section alignment (one page), and per-payload alignment.
inline constexpr size_t kColumnShardPageAlign = 4096;
inline constexpr size_t kColumnShardPayloadAlign = 8;

/// Per-container payload encodings (v2 directory byte).
inline constexpr uint8_t kColumnShardEncodingRaw = 0;
inline constexpr uint8_t kColumnShardEncodingDeltaVarint = 1;

struct ColumnShardWriteOptions {
  /// 1 writes the legacy always-raw format; 2 (default) picks the
  /// min-byte encoding per container.
  int format_version = 2;
};

/// Byte accounting of one shard write (feeds column.spill_* gauges).
struct ColumnShardWriteStats {
  uint64_t file_bytes = 0;     // whole file, header + padding + payloads
  uint64_t payload_bytes = 0;  // encoded payload bytes actually written
  uint64_t raw_payload_bytes = 0;  // what encoding-0 payloads would cost
};

/// The one CCS writer. It takes a shard one column at a time, in item
/// order: AddColumn picks each container's encoding (v2: the min-byte
/// rule), appends the payload to one payload buffer and the record to one
/// directory buffer, and keeps no reference to the column, so the caller
/// can release it right away. Finish then writes the header, directory,
/// padding and payload. Neither a whole-shard index nor a whole-file image
/// is ever built, and Begin keeps both buffers' capacity: a writer reused
/// across shards (the out-of-core spill keeps one) stops allocating once it
/// has seen its largest shard. Not thread-safe; one shard at a time.
class ColumnShardWriter {
 public:
  /// `options.format_version` must be 1 or 2.
  explicit ColumnShardWriter(const ColumnShardWriteOptions& options = {});

  /// Starts a shard of `num_columns` columns over `num_rows` rows,
  /// discarding anything an unfinished shard had added.
  void Begin(size_t num_rows, ItemId num_columns);

  /// Appends the next column's containers, in key order. Exactly
  /// `num_columns` calls go between Begin and Finish.
  void AddColumn(const CountingColumn& column);

  /// Writes the shard to `path`. A failed write can leave a partial file
  /// behind.
  Status Finish(const std::string& path,
                ColumnShardWriteStats* stats = nullptr);

 private:
  bool v2_ = true;
  ItemId num_columns_ = 0;
  ItemId added_ = 0;
  std::string directory_;
  std::string payload_;
  uint64_t raw_bytes_ = 0;
  uint64_t encoded_bytes_ = 0;
};

/// Serializes every column of `source` to `path` through one
/// ColumnShardWriter (callers must treat a failed write as leaving a
/// partial file behind). Columns are written in item order, containers in
/// key order.
Status WriteColumnShardFile(const ColumnSource& source,
                            const std::string& path,
                            const ColumnShardWriteOptions& options = {},
                            ColumnShardWriteStats* stats = nullptr);

/// A CCS file (v1 or v2) mapped read-only; implements ColumnSource over
/// view-backed columns whose raw payloads live in the mapping and whose
/// delta-varint payloads decode on first access. The mapping (and
/// therefore every column handed out) lives until destruction; resident
/// cost is whatever pages counting actually touched, and munmap returns
/// them — the out-of-core miner's map → count → unmap cycle keeps its
/// high-water mark near one partition.
class MappedColumnShard : public ColumnSource {
 public:
  static StatusOr<std::unique_ptr<MappedColumnShard>> Open(
      const std::string& path);

  ~MappedColumnShard() override;

  MappedColumnShard(const MappedColumnShard&) = delete;
  MappedColumnShard& operator=(const MappedColumnShard&) = delete;

  size_t num_rows() const override { return num_rows_; }
  ItemId num_columns() const override {
    return static_cast<ItemId>(columns_.size());
  }
  const CountingColumn& column(ItemId item) const override;

  size_t file_bytes() const { return map_len_; }
  int format_version() const { return format_version_; }

 private:
  /// One directory record plus its payload location in the mapping.
  struct ContainerEntry {
    uint32_t key = 0;
    CountingColumn::ContainerKind kind = CountingColumn::ContainerKind::kArray;
    uint8_t encoding = kColumnShardEncodingRaw;
    uint32_t count = 0;
    const uint8_t* payload = nullptr;
    size_t payload_bytes = 0;
  };

  /// One column, materialized at most once. unique_ptr because the mutex
  /// is immovable. `decoded` owns the u16 buffers for delta-varint
  /// containers; raw containers view the mapping directly. A mutex and a
  /// flag rather than std::call_once: call_once runs its callable inside
  /// pthread_once, and a std::bad_alloc unwinding through that glibc frame
  /// needs libgcc_s loaded by dlopen, which fails when memory has run out
  /// and aborts the process instead of failing the count.
  struct LazyColumn {
    std::vector<ContainerEntry> entries;
    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<std::vector<uint16_t>> decoded;  // guarded by mu
    CountingColumn column;  // written under mu before ready is set
  };

  MappedColumnShard() = default;

  void* map_ = nullptr;
  size_t map_len_ = 0;
  size_t num_rows_ = 0;
  int format_version_ = 1;
  std::vector<std::unique_ptr<LazyColumn>> columns_;
  CountingColumn empty_;  // items past the stored range
};

}  // namespace corrmine::io

#endif  // CORRMINE_IO_COLUMN_STORE_H_
