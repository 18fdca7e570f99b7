#include "io/column_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "io/binary_io.h"

namespace corrmine::io {

namespace {

size_t AlignUp(size_t value, size_t align) {
  return (value + align - 1) / align * align;
}

/// Varint reader over the mapped bytes (ReadVarint wants a std::string).
StatusOr<uint64_t> ReadVarintMem(const uint8_t* data, size_t len,
                                 size_t* pos) {
  const char* begin = reinterpret_cast<const char*>(data);
  const char* p = begin + std::min(*pos, len);
  uint64_t value = 0;
  if (DecodeVarint(&p, begin + len, &value) != VarintStep::kOk) {
    return Status::Corruption("CCS: truncated varint in directory");
  }
  *pos = static_cast<size_t>(p - begin);
  return value;
}

size_t RawPayloadBytes(const CountingColumn::ContainerView& view) {
  return view.kind == CountingColumn::ContainerKind::kDense
             ? CountingColumn::kWordsPerDense * sizeof(uint64_t)
             : view.u16.size() * sizeof(uint16_t);
}

}  // namespace

ColumnShardWriter::ColumnShardWriter(const ColumnShardWriteOptions& options)
    : v2_(options.format_version == 2) {
  CORRMINE_CHECK(options.format_version == 1 || options.format_version == 2)
      << "unsupported column shard version " << options.format_version;
}

void ColumnShardWriter::Begin(size_t num_rows, ItemId num_columns) {
  num_columns_ = num_columns;
  added_ = 0;
  directory_.clear();
  payload_.clear();
  raw_bytes_ = 0;
  encoded_bytes_ = 0;
  AppendVarint(&directory_, num_rows);
  AppendVarint(&directory_, num_columns);
}

void ColumnShardWriter::AddColumn(const CountingColumn& column) {
  CORRMINE_CHECK(added_ < num_columns_) << "more columns than Begin declared";
  ++added_;
  AppendVarint(&directory_, column.num_containers());
  for (size_t i = 0; i < column.num_containers(); ++i) {
    const CountingColumn::ContainerView view = column.container_view(i);
    const size_t raw_bytes = RawPayloadBytes(view);
    // Payload offsets are 8-aligned and relative to payload_base, so they
    // are known before the directory, whose size sets the base.
    payload_.resize(AlignUp(payload_.size(), kColumnShardPayloadAlign), '\0');
    const size_t rel_offset = payload_.size();
    uint8_t encoding = kColumnShardEncodingRaw;
    if (v2_ && view.kind != CountingColumn::ContainerKind::kDense) {
      EncodeU16DeltaVarint(view.kind, view.u16, &payload_);
      if (payload_.size() - rel_offset < raw_bytes) {
        encoding = kColumnShardEncodingDeltaVarint;
      } else {
        payload_.resize(rel_offset);
      }
    }
    if (encoding == kColumnShardEncodingRaw) {
      if (view.kind == CountingColumn::ContainerKind::kDense) {
        payload_.append(reinterpret_cast<const char*>(view.words.data()),
                        view.words.size() * sizeof(uint64_t));
      } else {
        payload_.append(reinterpret_cast<const char*>(view.u16.data()),
                        view.u16.size() * sizeof(uint16_t));
      }
    }
    const size_t bytes = payload_.size() - rel_offset;
    raw_bytes_ += raw_bytes;
    encoded_bytes_ += bytes;
    AppendVarint(&directory_, view.key);
    directory_.push_back(static_cast<char>(view.kind));
    if (v2_) directory_.push_back(static_cast<char>(encoding));
    AppendVarint(&directory_, view.count);
    AppendVarint(&directory_, rel_offset);
    AppendVarint(&directory_, bytes);
  }
}

Status ColumnShardWriter::Finish(const std::string& path,
                                 ColumnShardWriteStats* stats) {
  CORRMINE_CHECK(added_ == num_columns_)
      << "shard finished after " << added_ << " of " << num_columns_
      << " columns";
  const size_t header_bytes =
      sizeof(kColumnShardMagic) + sizeof(uint64_t) + directory_.size();
  const uint64_t payload_base = AlignUp(header_bytes, kColumnShardPageAlign);
  char head[sizeof(kColumnShardMagic) + sizeof(uint64_t)];
  std::memcpy(head, v2_ ? kColumnShardMagicV2 : kColumnShardMagic,
              sizeof(kColumnShardMagic));
  for (size_t i = 0; i < sizeof(uint64_t); ++i) {
    head[sizeof(kColumnShardMagic) + i] =
        static_cast<char>((payload_base >> (8 * i)) & 0xff);
  }
  static constexpr char kZeros[kColumnShardPageAlign] = {};
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  file.write(head, sizeof(head));
  file.write(directory_.data(),
             static_cast<std::streamsize>(directory_.size()));
  file.write(kZeros, static_cast<std::streamsize>(payload_base - header_bytes));
  file.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  file.flush();
  if (!file) {
    return Status::IOError("error writing " + path);
  }
  if (stats != nullptr) {
    stats->file_bytes = payload_base + payload_.size();
    stats->payload_bytes = encoded_bytes_;
    stats->raw_payload_bytes = raw_bytes_;
  }
  return Status::OK();
}

Status WriteColumnShardFile(const ColumnSource& source,
                            const std::string& path,
                            const ColumnShardWriteOptions& options,
                            ColumnShardWriteStats* stats) {
  if (options.format_version != 1 && options.format_version != 2) {
    return Status::InvalidArgument("unsupported column shard version");
  }
  ColumnShardWriter writer(options);
  writer.Begin(source.num_rows(), source.num_columns());
  for (ItemId item = 0; item < source.num_columns(); ++item) {
    writer.AddColumn(source.column(item));
  }
  return writer.Finish(path, stats);
}

StatusOr<std::unique_ptr<MappedColumnShard>> MappedColumnShard::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open column shard: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Status::IOError("cannot stat column shard: " + path);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_errno = errno;
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    // No address space left for the mapping is the same shortage as a
    // failed allocation.
    return map_errno == ENOMEM
               ? Status::ResourceExhausted("mmap failed for column shard: " +
                                           path)
               : Status::IOError("mmap failed for column shard: " + path);
  }
  std::unique_ptr<MappedColumnShard> shard(new MappedColumnShard());
  shard->map_ = map;
  shard->map_len_ = len;

  const uint8_t* data = static_cast<const uint8_t*>(map);
  if (len < sizeof(kColumnShardMagic) + sizeof(uint64_t) ||
      std::memcmp(data, kColumnShardMagic, 3) != 0 ||
      (data[3] != '1' && data[3] != '2')) {
    return Status::Corruption("not a CCS column shard: " + path);
  }
  const bool v2 = data[3] == '2';
  shard->format_version_ = v2 ? 2 : 1;
  size_t pos = sizeof(kColumnShardMagic);
  uint64_t payload_base = 0;
  for (int i = 0; i < 8; ++i) {
    payload_base |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
  }
  pos += 8;
  if (payload_base > len) {
    return Status::Corruption("CCS: payload base past end of file");
  }
  CORRMINE_ASSIGN_OR_RETURN(const uint64_t num_rows,
                            ReadVarintMem(data, payload_base, &pos));
  CORRMINE_ASSIGN_OR_RETURN(const uint64_t num_columns,
                            ReadVarintMem(data, payload_base, &pos));
  shard->num_rows_ = num_rows;
  shard->columns_.reserve(num_columns);
  for (uint64_t item = 0; item < num_columns; ++item) {
    CORRMINE_ASSIGN_OR_RETURN(const uint64_t num_containers,
                              ReadVarintMem(data, payload_base, &pos));
    auto lazy = std::make_unique<LazyColumn>();
    lazy->entries.reserve(num_containers);
    for (uint64_t c = 0; c < num_containers; ++c) {
      CORRMINE_ASSIGN_OR_RETURN(const uint64_t key,
                                ReadVarintMem(data, payload_base, &pos));
      if (pos >= payload_base) {
        return Status::Corruption("CCS: truncated container record");
      }
      const uint8_t kind_byte = data[pos++];
      if (kind_byte > 2) {
        return Status::Corruption("CCS: unknown container kind");
      }
      uint8_t encoding = kColumnShardEncodingRaw;
      if (v2) {
        if (pos >= payload_base) {
          return Status::Corruption("CCS: truncated container record");
        }
        encoding = data[pos++];
        if (encoding > kColumnShardEncodingDeltaVarint) {
          return Status::Corruption("CCS: unknown payload encoding");
        }
      }
      CORRMINE_ASSIGN_OR_RETURN(const uint64_t count,
                                ReadVarintMem(data, payload_base, &pos));
      CORRMINE_ASSIGN_OR_RETURN(const uint64_t rel_offset,
                                ReadVarintMem(data, payload_base, &pos));
      CORRMINE_ASSIGN_OR_RETURN(const uint64_t bytes,
                                ReadVarintMem(data, payload_base, &pos));
      if (rel_offset % kColumnShardPayloadAlign != 0 ||
          payload_base + rel_offset + bytes > len) {
        return Status::Corruption("CCS: payload out of bounds");
      }
      ContainerEntry entry;
      entry.key = static_cast<uint32_t>(key);
      entry.kind = static_cast<CountingColumn::ContainerKind>(kind_byte);
      entry.encoding = encoding;
      entry.count = static_cast<uint32_t>(count);
      entry.payload = data + payload_base + rel_offset;
      entry.payload_bytes = bytes;
      if (entry.kind == CountingColumn::ContainerKind::kDense) {
        if (encoding != kColumnShardEncodingRaw) {
          return Status::Corruption("CCS: dense payload must be raw");
        }
        if (bytes != CountingColumn::kWordsPerDense * sizeof(uint64_t)) {
          return Status::Corruption("CCS: dense payload size mismatch");
        }
      } else if (encoding == kColumnShardEncodingRaw) {
        if (bytes % sizeof(uint16_t) != 0) {
          return Status::Corruption("CCS: odd u16 payload size");
        }
        if (entry.kind == CountingColumn::ContainerKind::kArray &&
            bytes != count * sizeof(uint16_t)) {
          return Status::Corruption("CCS: array payload size mismatch");
        }
      }
      lazy->entries.push_back(entry);
    }
    shard->columns_.push_back(std::move(lazy));
  }
  shard->empty_ = CountingColumn(num_rows, {});
  return shard;
}

MappedColumnShard::~MappedColumnShard() {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
  }
}

const CountingColumn& MappedColumnShard::column(ItemId item) const {
  if (static_cast<size_t>(item) >= columns_.size()) return empty_;
  LazyColumn& lazy = *columns_[item];
  if (lazy.ready.load(std::memory_order_acquire)) return lazy.column;
  std::lock_guard<std::mutex> lock(lazy.mu);
  if (!lazy.ready.load(std::memory_order_relaxed)) {
    std::vector<CountingColumn::ContainerView> views;
    views.reserve(lazy.entries.size());
    // Reserve so pushes never reallocate: earlier views alias `decoded`
    // buffers and must stay anchored until FromContainerViews copies them.
    // An earlier attempt that ran out of memory may have left buffers.
    lazy.decoded.clear();
    lazy.decoded.reserve(lazy.entries.size());
    for (const ContainerEntry& entry : lazy.entries) {
      CountingColumn::ContainerView view;
      view.key = entry.key;
      view.kind = entry.kind;
      view.count = entry.count;
      if (entry.kind == CountingColumn::ContainerKind::kDense) {
        view.words = std::span<const uint64_t>(
            reinterpret_cast<const uint64_t*>(entry.payload),
            CountingColumn::kWordsPerDense);
      } else if (entry.encoding == kColumnShardEncodingRaw) {
        view.u16 = std::span<const uint16_t>(
            reinterpret_cast<const uint16_t*>(entry.payload),
            entry.payload_bytes / sizeof(uint16_t));
      } else {
        // Bounds were validated at open; a decode failure here means the
        // payload bytes themselves are corrupt — fail fast rather than
        // count against garbage.
        std::vector<uint16_t> buf;
        const Status st =
            DecodeU16DeltaVarint(entry.kind, entry.payload,
                                 entry.payload_bytes, entry.count, &buf);
        CORRMINE_CHECK(st.ok())
            << "column shard payload decode failed: " << st.ToString();
        lazy.decoded.push_back(std::move(buf));
        view.u16 = std::span<const uint16_t>(lazy.decoded.back());
      }
      views.push_back(view);
    }
    lazy.column = CountingColumn::FromContainerViews(num_rows_, views);
    lazy.ready.store(true, std::memory_order_release);
  }
  return lazy.column;
}

}  // namespace corrmine::io
