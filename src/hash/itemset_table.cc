#include "hash/itemset_table.h"

#include <algorithm>
#include <bit>
#include <string>

namespace corrmine::hash {

namespace {

/// Multiply-xor over the items, then a murmur-style finalizer so the top
/// bits (the slot) and the low 32 bits (the tag) both depend on every item.
uint64_t HashMember(std::span<const ItemId> items) {
  uint64_t h = items.size();
  for (ItemId item : items) h = (h ^ item) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 32);
}

}  // namespace

size_t ItemsetTable::Probe(std::span<const ItemId> items,
                           uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  for (size_t pos = hash >> shift_;; pos = (pos + 1) & mask) {
    const uint64_t slot = slots_[pos];
    if (slot == 0) return pos;
    if (static_cast<uint32_t>(slot >> 32) != tag) continue;
    const size_t index = static_cast<uint32_t>(slot) - 1;
    if (std::equal(items.begin(), items.end(),
                   items_.begin() + index * width_)) {
      return pos;
    }
  }
}

StatusOr<ItemsetTable> ItemsetTable::Build(size_t width,
                                           std::vector<ItemId> items) {
  ItemsetTable table;
  table.width_ = width;
  if (items.empty()) return table;
  if (width == 0 || items.size() % width != 0) {
    return Status::InvalidArgument(
        "itemset table arena of " + std::to_string(items.size()) +
        " items is not a whole number of width-" + std::to_string(width) +
        " members");
  }
  const size_t n = items.size() / width;
  if (n >= kAbsent) {
    return Status::ResourceExhausted("itemset table of " + std::to_string(n) +
                                     " members exceeds 32-bit indexes");
  }
  table.items_ = std::move(items);
  const size_t capacity = std::bit_ceil(n + n / 2 + 1);
  table.slots_.assign(capacity, 0);
  table.shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hash = HashMember(table.member(i));
    const size_t pos = table.Probe(table.member(i), hash);
    if (table.slots_[pos] != 0) {
      return Status::InvalidArgument("itemset table member " +
                                     std::to_string(i) + " is repeated");
    }
    table.slots_[pos] = (hash << 32) | (i + 1);
  }
  return table;
}

void ItemsetTable::Prefetch(std::span<const ItemId> items) const {
  if (slots_.empty()) return;
  __builtin_prefetch(&slots_[HashMember(items) >> shift_]);
}

uint32_t ItemsetTable::Find(std::span<const ItemId> items) const {
  if (items.size() != width_ || slots_.empty()) return kAbsent;
  const uint64_t slot = slots_[Probe(items, HashMember(items))];
  return slot == 0 ? kAbsent : static_cast<uint32_t>(slot) - 1;
}

}  // namespace corrmine::hash
