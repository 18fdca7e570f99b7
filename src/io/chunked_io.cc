#include "io/chunked_io.h"

#include <fstream>

#include "io/binary_io.h"
#include "io/cmb1_decoder.h"
#include "io/format_detect.h"

namespace corrmine::io {

StatusOr<std::vector<TransactionChunkInfo>> ListTransactionChunks(
    const std::string& bytes) {
  std::vector<TransactionChunkInfo> chunks;
  Cmb1Decoder decoder;
  CORRMINE_RETURN_NOT_OK(DecodeCmb1(
      bytes, /*single_segment=*/false, &decoder,
      [&](size_t offset) {
        if (!chunks.empty()) chunks.back().size = offset - chunks.back().offset;
        chunks.push_back({offset, 0, decoder.segment_items(),
                          decoder.segment_baskets()});
        return Status::OK();
      },
      [](std::vector<ItemId>&) { return Status::OK(); }));
  chunks.back().size = bytes.size() - chunks.back().offset;
  return chunks;
}

Status AppendBinaryTransactionChunk(const TransactionDatabase& chunk,
                                    const std::string& path) {
  {
    // An existing file must be binary: appending a segment to a text file
    // would corrupt it, and the sniffing rule (CMB1 prefix) would then
    // misclassify the result.
    std::ifstream probe(path, std::ios::binary);
    if (probe) {
      auto format = DetectTransactionFileFormat(path);
      CORRMINE_RETURN_NOT_OK(format.status());
      if (*format != TransactionFileFormat::kBinary) {
        return Status::InvalidArgument(
            "cannot append a binary chunk to non-binary file " + path);
      }
    }
  }
  std::ofstream file(path, std::ios::binary | std::ios::app);
  if (!file) {
    return Status::IOError("cannot open " + path + " for appending");
  }
  std::string bytes = EncodeBinaryTransactions(chunk);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) {
    return Status::IOError("error appending to " + path);
  }
  return Status::OK();
}

Status RetireOldestTransactionChunks(const std::string& path, size_t drop) {
  CORRMINE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  CORRMINE_ASSIGN_OR_RETURN(std::vector<TransactionChunkInfo> chunks,
                            ListTransactionChunks(bytes));
  if (drop >= chunks.size()) {
    return Status::InvalidArgument(
        "cannot retire " + std::to_string(drop) + " of " +
        std::to_string(chunks.size()) +
        " chunks: a transaction file may not become empty");
  }
  if (drop == 0) return Status::OK();
  return WriteStringToFile(bytes.substr(chunks[drop].offset), path);
}

}  // namespace corrmine::io
