#include "io/format_detect.h"

#include <fstream>

namespace corrmine::io {

TransactionFileFormat DetectTransactionFormat(std::string_view head) {
  if (head.size() >= sizeof(kBinaryTransactionMagic) &&
      head.compare(0, sizeof(kBinaryTransactionMagic),
                   kBinaryTransactionMagic,
                   sizeof(kBinaryTransactionMagic)) == 0) {
    return TransactionFileFormat::kBinary;
  }
  return TransactionFileFormat::kText;
}

StatusOr<TransactionFileFormat> DetectTransactionFileFormat(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot open " + path);
  }
  char head[sizeof(kBinaryTransactionMagic)] = {0};
  file.read(head, sizeof(head));
  if (file.bad()) {
    // Opening a directory succeeds; reading it does not.
    return Status::IOError("cannot read " + path);
  }
  return DetectTransactionFormat(
      std::string_view(head, static_cast<size_t>(file.gcount())));
}

const char* TransactionFileFormatName(TransactionFileFormat format) {
  switch (format) {
    case TransactionFileFormat::kBinary:
      return "binary";
    case TransactionFileFormat::kText:
      return "text";
  }
  return "unknown";
}

}  // namespace corrmine::io
