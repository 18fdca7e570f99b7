#include "io/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <optional>
#include <utility>

#include "io/cmb1_decoder.h"
#include "io/format_detect.h"

namespace corrmine::io {

namespace {

// The shared sniffing helper owns the magic; keep a local alias so the
// encoder reads naturally.
constexpr const char* kMagic = kBinaryTransactionMagic;
constexpr size_t kMagicSize = sizeof(kBinaryTransactionMagic);

}  // namespace

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

StatusOr<uint64_t> ReadVarint(const std::string& bytes, size_t* pos) {
  const char* p = bytes.data() + std::min(*pos, bytes.size());
  uint64_t value = 0;
  switch (DecodeVarint(&p, bytes.data() + bytes.size(), &value)) {
    case VarintStep::kOk:
      break;
    case VarintStep::kNeedMore:
      return Status::Corruption("truncated varint");
    case VarintStep::kOverflow:
      return Status::Corruption("varint overflow");
  }
  *pos = static_cast<size_t>(p - bytes.data());
  return value;
}

std::string EncodeBinaryTransactions(const TransactionDatabase& db) {
  std::string out(kMagic, kMagicSize);
  AppendVarint(&out, db.num_items());
  AppendVarint(&out, db.num_baskets());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    const std::vector<ItemId>& basket = db.basket(row);
    AppendVarint(&out, basket.size());
    ItemId previous = 0;
    for (size_t i = 0; i < basket.size(); ++i) {
      uint64_t delta = i == 0 ? basket[i] : basket[i] - previous;
      AppendVarint(&out, delta);
      previous = basket[i];
    }
  }
  return out;
}

Status DecodeBinaryTransactionsInto(
    const std::string& bytes, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink) {
  Cmb1Decoder decoder;
  return DecodeCmb1(
      bytes, /*single_segment=*/true, &decoder,
      [&](size_t) {
        *num_items = decoder.segment_items();
        return Status::OK();
      },
      [&](std::vector<ItemId>& basket) { return sink(std::move(basket)); });
}

StatusOr<TransactionDatabase> DecodeBinaryTransactions(
    const std::string& bytes) {
  // The item-space size is only known once the header has been decoded.
  std::optional<TransactionDatabase> db;
  Cmb1Decoder decoder;
  CORRMINE_RETURN_NOT_OK(DecodeCmb1(
      bytes, /*single_segment=*/true, &decoder,
      [&](size_t) {
        db.emplace(decoder.segment_items());
        return Status::OK();
      },
      [&](std::vector<ItemId>& basket) {
        return db->AddBasket(std::move(basket));
      }));
  return std::move(*db);
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path);
  }
  struct stat info {};
  if (::fstat(fd, &info) != 0 || S_ISDIR(info.st_mode)) {
    ::close(fd);
    return Status::IOError("cannot read " + path + ": not a file");
  }
  // A regular file is read into a buffer sized once from its length. Pipes,
  // devices and files that report no length grow the buffer as they go.
  const bool sized = S_ISREG(info.st_mode) && info.st_size > 0;
  std::string bytes(sized ? static_cast<size_t>(info.st_size) : 64 * 1024,
                    '\0');
  size_t filled = 0;
  while (true) {
    if (filled == bytes.size()) {
      if (sized) break;
      bytes.resize(bytes.size() * 2);
    }
    const ssize_t got =
        ::read(fd, bytes.data() + filled, bytes.size() - filled);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      ::close(fd);
      return Status::IOError("error reading " + path);
    }
    if (got == 0) break;
    filled += static_cast<size_t>(got);
  }
  ::close(fd);
  bytes.resize(filled);
  return bytes;
}

Status WriteStringToFile(const std::string& bytes, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) {
    return Status::IOError("error writing " + path);
  }
  return Status::OK();
}

Status WriteBinaryTransactionFile(const TransactionDatabase& db,
                                  const std::string& path) {
  return WriteStringToFile(EncodeBinaryTransactions(db), path);
}

StatusOr<TransactionDatabase> ReadBinaryTransactionFile(
    const std::string& path) {
  CORRMINE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeBinaryTransactions(bytes);
}

bool LooksLikeBinaryTransactionFile(const std::string& path) {
  auto format = DetectTransactionFileFormat(path);
  return format.ok() && *format == TransactionFileFormat::kBinary;
}

}  // namespace corrmine::io
