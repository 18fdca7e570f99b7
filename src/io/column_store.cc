#include "io/column_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
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

Status WriteColumnShardFile(const ColumnSource& source,
                            const std::string& path,
                            const ColumnShardWriteOptions& options,
                            ColumnShardWriteStats* stats) {
  if (options.format_version != 1 && options.format_version != 2) {
    return Status::InvalidArgument("unsupported column shard version");
  }
  const bool v2 = options.format_version == 2;

  // Pass 1: pick the min-byte encoding per container (v2) and assign
  // 8-aligned payload offsets (relative to payload_base, so they are known
  // before the directory — whose size sets the base — is built).
  struct Entry {
    CountingColumn::ContainerView view;
    uint8_t encoding = kColumnShardEncodingRaw;
    uint64_t rel_offset = 0;
    uint64_t bytes = 0;       // encoded payload bytes
    size_t varint_index = 0;  // into `varint_payloads` when encoding == 1
  };
  std::vector<std::vector<Entry>> columns(source.num_columns());
  std::vector<std::string> varint_payloads;
  uint64_t payload_bytes = 0;
  uint64_t raw_bytes_total = 0;
  uint64_t encoded_bytes_total = 0;
  std::string scratch;
  for (ItemId item = 0; item < source.num_columns(); ++item) {
    const CountingColumn& col = source.column(item);
    columns[item].reserve(col.num_containers());
    for (size_t i = 0; i < col.num_containers(); ++i) {
      Entry entry;
      entry.view = col.container_view(i);
      const size_t raw_bytes = RawPayloadBytes(entry.view);
      entry.bytes = raw_bytes;
      raw_bytes_total += raw_bytes;
      if (v2 && entry.view.kind != CountingColumn::ContainerKind::kDense) {
        scratch.clear();
        EncodeU16DeltaVarint(entry.view.kind, entry.view.u16, &scratch);
        if (scratch.size() < raw_bytes) {
          entry.encoding = kColumnShardEncodingDeltaVarint;
          entry.bytes = scratch.size();
          entry.varint_index = varint_payloads.size();
          varint_payloads.push_back(scratch);
        }
      }
      encoded_bytes_total += entry.bytes;
      payload_bytes = AlignUp(payload_bytes, kColumnShardPayloadAlign);
      entry.rel_offset = payload_bytes;
      payload_bytes += entry.bytes;
      columns[item].push_back(std::move(entry));
    }
  }

  std::string directory;
  AppendVarint(&directory, source.num_rows());
  AppendVarint(&directory, source.num_columns());
  for (const std::vector<Entry>& column : columns) {
    AppendVarint(&directory, column.size());
    for (const Entry& entry : column) {
      AppendVarint(&directory, entry.view.key);
      directory.push_back(static_cast<char>(entry.view.kind));
      if (v2) directory.push_back(static_cast<char>(entry.encoding));
      AppendVarint(&directory, entry.view.count);
      AppendVarint(&directory, entry.rel_offset);
      AppendVarint(&directory, entry.bytes);
    }
  }

  const size_t header_bytes = sizeof(kColumnShardMagic) + sizeof(uint64_t) +
                              directory.size();
  const uint64_t payload_base = AlignUp(header_bytes, kColumnShardPageAlign);

  std::string bytes;
  bytes.reserve(payload_base + payload_bytes);
  bytes.append(v2 ? kColumnShardMagicV2 : kColumnShardMagic,
               sizeof(kColumnShardMagic));
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((payload_base >> (8 * i)) & 0xff));
  }
  bytes += directory;
  bytes.resize(payload_base, '\0');
  for (const std::vector<Entry>& column : columns) {
    for (const Entry& entry : column) {
      bytes.resize(payload_base + entry.rel_offset, '\0');
      if (entry.encoding == kColumnShardEncodingDeltaVarint) {
        bytes += varint_payloads[entry.varint_index];
      } else if (entry.view.kind == CountingColumn::ContainerKind::kDense) {
        bytes.append(reinterpret_cast<const char*>(entry.view.words.data()),
                     entry.view.words.size() * sizeof(uint64_t));
      } else {
        bytes.append(reinterpret_cast<const char*>(entry.view.u16.data()),
                     entry.view.u16.size() * sizeof(uint16_t));
      }
    }
  }
  if (stats != nullptr) {
    stats->file_bytes = bytes.size();
    stats->payload_bytes = encoded_bytes_total;
    stats->raw_payload_bytes = raw_bytes_total;
  }
  return WriteStringToFile(bytes, path);
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
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed for column shard: " + path);
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
  std::call_once(lazy.once, [this, &lazy]() {
    std::vector<CountingColumn::ContainerView> views;
    views.reserve(lazy.entries.size());
    // Reserve so pushes never reallocate: earlier views alias `decoded`
    // buffers and must stay anchored until FromContainerViews copies them.
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
  });
  return lazy.column;
}

}  // namespace corrmine::io
