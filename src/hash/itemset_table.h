#ifndef CORRMINE_HASH_ITEMSET_TABLE_H_
#define CORRMINE_HASH_ITEMSET_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "itemset/itemset.h"

namespace corrmine::hash {

/// A static set of equal-width itemsets: N members of `width` items each,
/// back to back in one flat width × N ItemId arena in build order, with one
/// open-addressing index over it (linear probing; each slot holds a 32-bit
/// tag of the member's hash and its index). The index is built once and
/// never changes, which is all Figure 1 needs of a NOTSIG level (§4 keeps
/// NOTSIG in perfect-hash tables [7, 10] for the same O(1) lookups): a
/// level is appended in commit order, frozen, then probed by Step 8.
///
/// Find compares the full items on every tag match, so two itemsets that
/// share a hash still resolve exactly.
class ItemsetTable {
 public:
  /// Find's answer for an itemset that is not a member.
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// The empty table (width 0): every Find misses.
  ItemsetTable() = default;

  /// Builds the index over `items`: consecutive runs of `width` items, each
  /// run sorted and duplicate-free. Fails on a repeated member, on an arena
  /// that is not a whole number of members, and at 2^32 - 1 members or
  /// more (indexes are 32-bit and kAbsent is reserved).
  static StatusOr<ItemsetTable> Build(size_t width, std::vector<ItemId> items);

  /// Build index of the member whose items are exactly `items`, or
  /// kAbsent. Allocation-free, so callers probe from a stack buffer.
  uint32_t Find(std::span<const ItemId> items) const;

  /// Starts loading the slot a later Find(items) reads first, so a caller
  /// walking many probes can overlap their cache misses.
  void Prefetch(std::span<const ItemId> items) const;

  size_t size() const { return width_ == 0 ? 0 : items_.size() / width_; }

  std::span<const ItemId> member(size_t i) const {
    return {items_.data() + i * width_, width_};
  }

  /// Bytes held by the arena and the index.
  uint64_t MemoryBytes() const {
    return items_.capacity() * sizeof(ItemId) +
           slots_.capacity() * sizeof(uint64_t);
  }

 private:
  /// The slot holding `items` (hash `hash`), or the empty slot that ends
  /// its probe sequence.
  size_t Probe(std::span<const ItemId> items, uint64_t hash) const;

  size_t width_ = 0;
  std::vector<ItemId> items_;
  /// (tag << 32) | (index + 1); 0 marks an empty slot. The size is a power
  /// of two at most two-thirds full, addressed by the hash's top bits.
  std::vector<uint64_t> slots_;
  unsigned shift_ = 64;
};

}  // namespace corrmine::hash

#endif  // CORRMINE_HASH_ITEMSET_TABLE_H_
