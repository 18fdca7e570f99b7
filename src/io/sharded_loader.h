#ifndef CORRMINE_IO_SHARDED_LOADER_H_
#define CORRMINE_IO_SHARDED_LOADER_H_

#include <string>

#include "common/status_or.h"
#include "itemset/sharded_database.h"
#include "itemset/transaction_database.h"

namespace corrmine::io {

/// Unified load path: auto-detects the on-disk format (CMB1 binary vs.
/// text, io/format_detect.h) and reads `path` into a monolithic database.
/// `num_items_hint` floors the item space for the text format; the binary
/// header is authoritative for its own item space.
StatusOr<TransactionDatabase> LoadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint = 0);

/// Chunked reader: auto-detects the format and streams `path` directly into
/// a K-shard database, round-robin by record order, without materializing
/// the monolithic row store in between. Binary files decode in one pass,
/// record by record (each segment header widens the item space); text files
/// buffer raw id
/// vectors until the maximum id is known, then distribute — either way
/// exactly one copy of the basket data is ever alive. `num_shards` follows
/// the ResolveShardCount convention (0 = one per hardware thread).
StatusOr<ShardedTransactionDatabase> LoadTransactionFileSharded(
    const std::string& path, size_t num_shards, ItemId num_items_hint = 0);

/// Decodes a CMB1 file (one or more segments) straight into `index`'s
/// per-shard bitmaps — basket j goes to shard j % K at row j / K — with no
/// row store in between. Every Cmb1Decoder check applies. Each segment
/// header widens the item space and reserves the bitmaps for its baskets;
/// since every basket record takes at least one byte, a header whose basket
/// count exceeds the bytes from its magic to the end of the file is
/// Corruption before that count sizes anything. `index` must hold no
/// baskets yet; on error its contents are unspecified.
Status LoadBinaryIntoIndex(const std::string& path,
                           ShardedCountProvider* index);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_SHARDED_LOADER_H_
