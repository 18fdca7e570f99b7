#ifndef CORRMINE_IO_STREAM_READER_H_
#define CORRMINE_IO_STREAM_READER_H_

#include <functional>
#include <string>

#include "common/status_or.h"
#include "itemset/transaction_database.h"

namespace corrmine::io {

/// Streams a transaction file basket-by-basket without ever materializing
/// the database — the entry point the out-of-core spill pass reads
/// through, so resident memory stays O(one basket + read buffer) no
/// matter the file size. Formats are sniffed like every other loader
/// (io/format_detect.h): text files are parsed line-by-line; CMB1 binary
/// files — including chunked multi-segment tails from `ingest --append` —
/// run the same decoder as the whole-file loaders (io/cmb1_decoder.h) over
/// a 64 KiB rolling window, so both readers reject exactly the same files.
///
/// `num_items` receives the item-space size on success: the maximum of
/// the per-segment header values for binary files (authoritative — it may
/// exceed the largest id actually present, and the in-memory loaders
/// honor it the same way), or max-id+1 for text. `sink` is invoked once
/// per basket in file order; a non-OK sink status aborts the stream.
///
/// `bytes_consumed` (optional) is kept current before every sink call:
/// input bytes decoded so far, exact for binary files (the file size once
/// the stream ends OK) and for text. Paired with the file size it gives the
/// pipelined out-of-core spill pass a deterministic progress fraction —
/// a pure function of the input prefix, never of wall-clock or threads.
Status StreamTransactionFile(
    const std::string& path, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink,
    uint64_t* bytes_consumed = nullptr);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_STREAM_READER_H_
