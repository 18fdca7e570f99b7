#ifndef CORRMINE_HASH_ITEMSET_SET_H_
#define CORRMINE_HASH_ITEMSET_SET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hash/dynamic_perfect_hash.h"
#include "itemset/itemset.h"

namespace corrmine::hash {

/// A set of itemsets with worst-case O(1) membership tests, backed by the
/// dynamic perfect hash over each itemset's 64-bit content hash. Full
/// itemsets are stored for verification, so distinct itemsets colliding on
/// the 64-bit hash (vanishingly rare but possible) fall back to a small
/// overflow list and never produce wrong answers.
///
/// This is the container Figure 1's Step 8 uses for NOTSIG: candidate
/// generation tests all i-subsets of a potential (i+1)-candidate for
/// membership in constant time each, and the miner looks up every proper
/// subset's count by insertion index.
class ItemsetPerfectSet {
 public:
  explicit ItemsetPerfectSet(uint64_t seed = 0x17e85e7ULL) : table_(seed) {}

  /// Inserts `s`; returns true if newly added.
  bool Insert(const Itemset& s);

  /// Insertion index of the stored itemset whose items are exactly `items`
  /// (sorted, duplicate-free), or nullopt. Allocation-free, so callers can
  /// probe with a stack buffer instead of building an Itemset.
  std::optional<size_t> Find(std::span<const ItemId> items) const;

  bool Contains(const Itemset& s) const { return Find(s.items()).has_value(); }

  size_t size() const { return itemsets_.size(); }
  bool empty() const { return itemsets_.empty(); }

  /// Stored itemsets in insertion order.
  const std::vector<Itemset>& itemsets() const { return itemsets_; }

  void Clear();

 private:
  DynamicPerfectHash table_;  // itemset hash -> index into itemsets_.
  std::vector<Itemset> itemsets_;
  /// Indices of itemsets whose hash collided with a different stored
  /// itemset; consulted only after a hash hit with mismatched contents.
  std::vector<size_t> overflow_;
};

}  // namespace corrmine::hash

#endif  // CORRMINE_HASH_ITEMSET_SET_H_
