#include "io/stream_reader.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "io/cmb1_decoder.h"
#include "io/format_detect.h"
#include "io/transaction_io.h"

namespace corrmine::io {

namespace {

/// Bytes per refill of the binary stream's rolling window.
constexpr size_t kWindowBytes = 64 * 1024;

/// Runs the CMB1 decoder over a rolling window of the file. A record cut by
/// the window's edge is slid to the front and decoded again after the
/// refill; the window doubles only when one record is longer than all of
/// it, so its size is bounded by the largest basket, not by the file.
Status StreamBinary(std::ifstream* in, ItemId* num_items,
                    const std::function<Status(std::vector<ItemId>)>& sink,
                    uint64_t* bytes_consumed) {
  std::string window(kWindowBytes, '\0');
  size_t begin = 0;  // first unread byte
  size_t end = 0;    // one past the last byte read
  bool eof = false;
  uint64_t consumed = 0;
  Cmb1Decoder decoder;
  std::vector<ItemId> basket;
  while (true) {
    const char* p = window.data() + begin;
    const Cmb1Decoder::Step step =
        decoder.Next(&p, window.data() + end, &basket);
    if (step == Cmb1Decoder::Step::kCorrupt) return decoder.error();
    if (step == Cmb1Decoder::Step::kNeedMore) {
      if (eof) {
        CORRMINE_RETURN_NOT_OK(decoder.Finish(end - begin));
        break;
      }
      const size_t unread = end - begin;
      if (unread == window.size()) window.resize(window.size() * 2);
      std::memmove(window.data(), window.data() + begin, unread);
      begin = 0;
      end = unread;
      in->read(window.data() + end,
               static_cast<std::streamsize>(window.size() - end));
      if (in->bad()) return Status::IOError("error reading binary stream");
      end += static_cast<size_t>(in->gcount());
      eof = end < window.size();
      continue;
    }
    const size_t used = static_cast<size_t>(p - (window.data() + begin));
    begin += used;
    consumed += used;
    if (step == Cmb1Decoder::Step::kBasket) {
      if (bytes_consumed != nullptr) *bytes_consumed = consumed;
      CORRMINE_RETURN_NOT_OK(sink(std::move(basket)));
    }
  }
  if (bytes_consumed != nullptr) *bytes_consumed = consumed;
  *num_items = decoder.max_items();
  return Status::OK();
}

Status StreamText(std::ifstream* in, ItemId* num_items,
                  const std::function<Status(std::vector<ItemId>)>& sink,
                  uint64_t* bytes_consumed) {
  std::string line;
  size_t line_no = 0;
  ItemId max_item_plus_1 = 0;
  uint64_t consumed = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    consumed += line.size() + 1;
    CORRMINE_ASSIGN_OR_RETURN(auto basket,
                              ParseTransactionLine(line, line_no));
    if (!basket.has_value()) continue;  // comment line
    for (const ItemId item : *basket) {
      max_item_plus_1 = std::max(max_item_plus_1, item + 1);
    }
    if (bytes_consumed != nullptr) *bytes_consumed = consumed;
    CORRMINE_RETURN_NOT_OK(sink(std::move(*basket)));
  }
  *num_items = max_item_plus_1;
  return Status::OK();
}

}  // namespace

Status StreamTransactionFile(
    const std::string& path, ItemId* num_items,
    const std::function<Status(std::vector<ItemId>)>& sink,
    uint64_t* bytes_consumed) {
  CORRMINE_ASSIGN_OR_RETURN(const TransactionFileFormat format,
                            DetectTransactionFileFormat(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  return format == TransactionFileFormat::kBinary
             ? StreamBinary(&in, num_items, sink, bytes_consumed)
             : StreamText(&in, num_items, sink, bytes_consumed);
}

}  // namespace corrmine::io
