#ifndef CORRMINE_IO_FORMAT_DETECT_H_
#define CORRMINE_IO_FORMAT_DETECT_H_

#include <string>
#include <string_view>

#include "common/status_or.h"

namespace corrmine::io {

/// Magic prefix of the compact binary basket format (binary_io.h). The text
/// format cannot collide with it: text lines hold digits, whitespace and '#'
/// comments only.
inline constexpr char kBinaryTransactionMagic[4] = {'C', 'M', 'B', '1'};

/// On-disk transaction-file flavors the loaders understand.
enum class TransactionFileFormat {
  kBinary,  // CMB1 varint records (io/binary_io.h)
  kText,    // one basket per line, whitespace-separated ids
};

/// Classifies a file from its leading bytes: the CMB1 magic means binary,
/// anything else (including fewer than 4 bytes) is treated as text. This is
/// the single format-sniffing rule shared by every reader — text files and
/// the binary codec are mutually unambiguous by construction.
TransactionFileFormat DetectTransactionFormat(std::string_view head);

/// File-based variant: reads up to 4 bytes of `path` and classifies them.
/// Errors only if the file cannot be opened or read (a directory).
StatusOr<TransactionFileFormat> DetectTransactionFileFormat(
    const std::string& path);

/// Human-readable format name ("binary" / "text") for logs and stats.
const char* TransactionFileFormatName(TransactionFileFormat format);

}  // namespace corrmine::io

#endif  // CORRMINE_IO_FORMAT_DETECT_H_
