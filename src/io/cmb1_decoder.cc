#include "io/cmb1_decoder.h"

#include <algorithm>
#include <cstring>

#include "io/binary_io.h"
#include "io/format_detect.h"

namespace corrmine::io {

namespace {

constexpr size_t kMagicSize = sizeof(kBinaryTransactionMagic);

/// DecodeVarint with the one-byte case inlined: nearly every item delta of
/// a sorted basket fits in 7 bits.
inline VarintStep DecodeDelta(const char** cursor, const char* end,
                              uint64_t* delta) {
  if (*cursor != end && static_cast<uint8_t>(**cursor) < 0x80) {
    *delta = static_cast<uint8_t>(*(*cursor)++);
    return VarintStep::kOk;
  }
  return DecodeVarint(cursor, end, delta);
}

}  // namespace

Cmb1Decoder::Step Cmb1Decoder::Next(const char** cursor, const char* end,
                                    std::vector<ItemId>* basket) {
  return baskets_left_ == 0 ? NextHeader(cursor, end)
                            : NextBasket(cursor, end, basket);
}

Cmb1Decoder::Step Cmb1Decoder::NextHeader(const char** cursor,
                                          const char* end) {
  const char* p = *cursor;
  const size_t head = std::min(static_cast<size_t>(end - p), kMagicSize);
  if (head > 0 && std::memcmp(p, kBinaryTransactionMagic, head) != 0) {
    return Fail("missing CMB1 magic");
  }
  if (head < kMagicSize) return Step::kNeedMore;
  p += kMagicSize;
  uint64_t item_space = 0;
  uint64_t baskets = 0;
  for (uint64_t* field : {&item_space, &baskets}) {
    switch (DecodeVarint(&p, end, field)) {
      case VarintStep::kOk:
        break;
      case VarintStep::kNeedMore:
        return Step::kNeedMore;
      case VarintStep::kOverflow:
        return Fail("varint overflow");
    }
  }
  if (item_space == 0 || item_space > UINT32_MAX) {
    return Fail("invalid item-space size");
  }
  segment_items_ = static_cast<ItemId>(item_space);
  segment_baskets_ = baskets;
  baskets_left_ = baskets;
  max_items_ = std::max(max_items_, segment_items_);
  ++segments_;
  *cursor = p;
  return Step::kHeader;
}

Cmb1Decoder::Step Cmb1Decoder::NextBasket(const char** cursor,
                                          const char* end,
                                          std::vector<ItemId>* basket) {
  const char* p = *cursor;
  uint64_t size = 0;
  switch (DecodeVarint(&p, end, &size)) {
    case VarintStep::kOk:
      break;
    case VarintStep::kNeedMore:
      return Step::kNeedMore;
    case VarintStep::kOverflow:
      return Fail("varint overflow");
  }
  const uint64_t item_space = segment_items_;
  if (size > item_space) return Fail("basket size exceeds item space");
  // Every id takes at least one byte, so a basket longer than the range
  // cannot complete in it — and a corrupt size never sizes the vector.
  if (size > static_cast<uint64_t>(end - p)) return Step::kNeedMore;
  basket->resize(size);
  ItemId* out = basket->data();
  uint64_t current = 0;
  for (uint64_t i = 0; i < size; ++i) {
    uint64_t delta = 0;
    switch (DecodeDelta(&p, end, &delta)) {
      case VarintStep::kOk:
        break;
      case VarintStep::kNeedMore:
        return Step::kNeedMore;
      case VarintStep::kOverflow:
        return Fail("varint overflow");
    }
    if (i > 0 && delta == 0) return Fail("non-increasing item delta");
    // current < item_space, so this bound cannot wrap.
    if (delta >= item_space - current) return Fail("item id out of range");
    current += delta;
    out[i] = static_cast<ItemId>(current);
  }
  --baskets_left_;
  *cursor = p;
  return Step::kBasket;
}

Status Cmb1Decoder::error() const { return Status::Corruption(error_); }

Status Cmb1Decoder::Finish(size_t unread) const {
  if (unread > 0 && at_segment_boundary() && unread < kMagicSize) {
    return Status::Corruption("missing CMB1 magic");
  }
  if (unread > 0 || !at_segment_boundary()) {
    return Status::Corruption("truncated varint");
  }
  if (segments_ == 0) return Status::Corruption("missing CMB1 magic");
  return Status::OK();
}

}  // namespace corrmine::io
