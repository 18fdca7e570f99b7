#ifndef CORRMINE_ITEMSET_ITEMSET_H_
#define CORRMINE_ITEMSET_ITEMSET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace corrmine {

/// Items are dense integer ids assigned by an ItemDictionary (or directly by
/// a generator). The id space is expected to be contiguous from 0.
using ItemId = uint32_t;

/// An itemset: a sorted, duplicate-free set of item ids. Value type with
/// cheap copies for the small sets mining works with (sizes 1..~10).
class Itemset {
 public:
  Itemset() = default;

  /// Builds from arbitrary-ordered items; sorts and de-duplicates.
  explicit Itemset(std::vector<ItemId> items);
  Itemset(std::initializer_list<ItemId> items);

  Itemset(const Itemset&) = default;
  Itemset& operator=(const Itemset&) = default;
  Itemset(Itemset&&) noexcept = default;
  Itemset& operator=(Itemset&&) noexcept = default;

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  ItemId item(size_t i) const { return items_[i]; }
  const std::vector<ItemId>& items() const { return items_; }

  std::vector<ItemId>::const_iterator begin() const { return items_.begin(); }
  std::vector<ItemId>::const_iterator end() const { return items_.end(); }

  bool Contains(ItemId item) const;

  /// True if every item of `other` is in this set.
  bool ContainsAll(const Itemset& other) const;

  /// Set union (result stays sorted/unique).
  Itemset Union(const Itemset& other) const;

  /// This set with one extra item (no-op if already present).
  Itemset WithItem(ItemId item) const;

  /// This set minus one item (no-op if absent).
  Itemset WithoutItem(ItemId item) const;

  /// All subsets obtained by removing exactly one item, in removal order.
  std::vector<Itemset> SubsetsMissingOne() const;

  /// FNV-1a over the bytes of the sorted items; stable across runs.
  uint64_t Hash() const;

  /// "{3, 7, 12}" — for logs and test failure messages.
  std::string ToString() const;

  friend bool operator==(const Itemset& a, const Itemset& b) {
    return a.items_ == b.items_;
  }
  friend bool operator!=(const Itemset& a, const Itemset& b) {
    return !(a == b);
  }
  /// Lexicographic order; usable as a map key.
  friend bool operator<(const Itemset& a, const Itemset& b) {
    return a.items_ < b.items_;
  }

 private:
  std::vector<ItemId> items_;
};

/// Hash functor for unordered containers keyed by Itemset.
struct ItemsetHasher {
  size_t operator()(const Itemset& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_ITEMSET_H_
