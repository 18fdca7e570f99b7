#ifndef CORRMINE_IO_BINARY_IO_H_
#define CORRMINE_IO_BINARY_IO_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status_or.h"
#include "itemset/transaction_database.h"

namespace corrmine::io {

/// Compact binary basket format ("CMB1"): a fixed header followed by one
/// varint-encoded record per basket. Within a basket, item ids are
/// delta-encoded (baskets are sorted, so deltas are small) and LEB128
/// varint packed — typically 1–2 bytes per (basket, item) pair versus 4–8
/// in the text format. Integrity is guarded by the header magic, explicit
/// counts, and strict bounds checks on read.
///
/// Layout (all varints are unsigned LEB128):
///   magic "CMB1" (4 bytes)
///   varint num_items
///   varint num_baskets
///   per basket: varint size, then `size` varint deltas
///     (first delta = first id, subsequent = id - previous id, so every
///      delta after the first is >= 1).
Status WriteBinaryTransactionFile(const TransactionDatabase& db,
                                  const std::string& path);

StatusOr<TransactionDatabase> ReadBinaryTransactionFile(
    const std::string& path);

/// In-memory codec (exposed for tests and tooling).
std::string EncodeBinaryTransactions(const TransactionDatabase& db);
StatusOr<TransactionDatabase> DecodeBinaryTransactions(
    const std::string& bytes);

/// Streaming decode: validates the header, stores the item-space size into
/// `*num_items`, then invokes `sink` once per basket in file order.
/// `*num_items` is set before the first sink call. The first non-OK status
/// from `sink` aborts the decode. Both decoders here take exactly one
/// segment and reject trailing bytes; multi-segment files load through
/// io/sharded_loader.h. Every CMB1 reader decodes through io/cmb1_decoder.h.
Status DecodeBinaryTransactionsInto(
    const std::string& bytes, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink);

/// Whole-file byte helpers shared by the binary codecs. ReadFileToString
/// sizes its buffer from the file's length and reads it once; a directory
/// or unreadable path is an IOError.
StatusOr<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& bytes, const std::string& path);

// LEB128 varint primitives, shared with the other binary codecs (chunked
// transaction files, border-state snapshots, column stores).

/// Outcome of decoding one unsigned LEB128 varint.
enum class VarintStep : uint8_t {
  kOk,        ///< Decoded; the cursor moved past it.
  kNeedMore,  ///< The range ends inside the varint; nothing consumed.
  kOverflow,  ///< A tenth byte carries bits past 2^64 or continues.
};

/// Decodes the varint at `*cursor` without reading at or past `end`. The
/// one varint loop behind every CMB1 reader (io/cmb1_decoder.h), ReadVarint
/// and the CCS directory reader.
inline VarintStep DecodeVarint(const char** cursor, const char* end,
                               uint64_t* value) {
  const char* p = *cursor;
  uint64_t result = 0;
  for (int shift = 0; p != end; shift += 7) {
    const uint64_t byte = static_cast<uint8_t>(*p++);
    if (shift == 63 && byte > 1) return VarintStep::kOverflow;
    result |= (byte & 0x7f) << shift;
    if (byte < 0x80) {
      *value = result;
      *cursor = p;
      return VarintStep::kOk;
    }
  }
  return VarintStep::kNeedMore;
}

void AppendVarint(std::string* out, uint64_t value);
/// Reads one varint at `*pos`, advancing it. Errors on truncation or
/// values wider than 64 bits (io::DecodeVarint's rule).
StatusOr<uint64_t> ReadVarint(const std::string& bytes, size_t* pos);

/// True when `path` starts with the binary magic. Thin wrapper over
/// DetectTransactionFileFormat (io/format_detect.h), kept for callers that
/// only care about this one format.
bool LooksLikeBinaryTransactionFile(const std::string& path);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_BINARY_IO_H_
