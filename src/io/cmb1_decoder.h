#ifndef CORRMINE_IO_CMB1_DECODER_H_
#define CORRMINE_IO_CMB1_DECODER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "itemset/itemset.h"

namespace corrmine::io {

/// Record-at-a-time decoder for CMB1 transaction files (io/binary_io.h):
/// one or more segments, each a header (magic, item space, basket count)
/// followed by that many basket records. Every CMB1 reader runs it — the
/// whole-file decoders over the file's bytes, the stream reader over its
/// rolling window — so they apply the same checks in the same byte order
/// and agree on what is corrupt.
class Cmb1Decoder {
 public:
  enum class Step : uint8_t {
    kHeader,    ///< Decoded a segment header (see segment_*()).
    kBasket,    ///< Decoded one basket, ids strictly increasing.
    kNeedMore,  ///< The range ends inside the next record; nothing consumed.
    kCorrupt,   ///< A check failed; error() names it.
  };

  /// Decodes the record at `*cursor` — a segment header when the current
  /// segment has no baskets left, else its next basket into `*basket`
  /// (resized to fit; its contents are scratch unless the step is kBasket)
  /// — and moves `*cursor` past it. Never reads at or past `end`.
  Step Next(const char** cursor, const char* end,
            std::vector<ItemId>* basket);

  /// The Status of the last kCorrupt step.
  Status error() const;

  /// The Status of input that ends with `unread` bytes on which Next
  /// reported kNeedMore: OK only when no byte is left, at least one
  /// segment was read and the last one is complete.
  Status Finish(size_t unread) const;

  /// True when the next record is a segment header.
  bool at_segment_boundary() const { return baskets_left_ == 0; }
  size_t segments() const { return segments_; }
  /// The current segment's item space and basket count.
  ItemId segment_items() const { return segment_items_; }
  uint64_t segment_baskets() const { return segment_baskets_; }
  /// The largest item space of any segment so far.
  ItemId max_items() const { return max_items_; }

 private:
  Step NextHeader(const char** cursor, const char* end);
  Step NextBasket(const char** cursor, const char* end,
                  std::vector<ItemId>* basket);
  Step Fail(const char* why) {
    error_ = why;
    return Step::kCorrupt;
  }

  const char* error_ = "";
  size_t segments_ = 0;
  ItemId segment_items_ = 0;
  uint64_t segment_baskets_ = 0;
  uint64_t baskets_left_ = 0;
  ItemId max_items_ = 0;
};

/// Decodes all of `bytes` in one pass. `on_header(offset)` runs after each
/// segment header, `offset` being the byte offset of its magic;
/// `on_basket(basket)` runs per basket and may move the vector out. Either
/// callback stops the decode by returning a non-OK Status. With
/// `single_segment`, bytes after the first segment are corrupt.
template <typename OnHeader, typename OnBasket>
Status DecodeCmb1(std::string_view bytes, bool single_segment,
                  Cmb1Decoder* decoder, OnHeader&& on_header,
                  OnBasket&& on_basket) {
  const char* const begin = bytes.data();
  const char* const end = begin + bytes.size();
  const char* p = begin;
  std::vector<ItemId> basket;
  while (true) {
    const auto offset = static_cast<size_t>(p - begin);
    switch (decoder->Next(&p, end, &basket)) {
      case Cmb1Decoder::Step::kHeader:
        CORRMINE_RETURN_NOT_OK(on_header(offset));
        break;
      case Cmb1Decoder::Step::kBasket:
        CORRMINE_RETURN_NOT_OK(on_basket(basket));
        break;
      case Cmb1Decoder::Step::kNeedMore:
        return decoder->Finish(static_cast<size_t>(end - p));
      case Cmb1Decoder::Step::kCorrupt:
        return decoder->error();
    }
    if (single_segment && decoder->at_segment_boundary()) {
      return p == end
                 ? Status::OK()
                 : Status::Corruption("trailing bytes after final basket");
    }
  }
}

}  // namespace corrmine::io

#endif  // CORRMINE_IO_CMB1_DECODER_H_
