#include "hash/itemset_set.h"

#include <algorithm>

namespace corrmine::hash {

bool ItemsetPerfectSet::Insert(const Itemset& s) {
  const uint64_t key = s.Hash();
  std::optional<uint64_t> hit = table_.Find(key);
  if (!hit.has_value()) {
    itemsets_.push_back(s);
    table_.Insert(key, itemsets_.size() - 1);
    return true;
  }
  if (Find(s.items()).has_value()) return false;
  itemsets_.push_back(s);
  overflow_.push_back(itemsets_.size() - 1);
  return true;
}

std::optional<size_t> ItemsetPerfectSet::Find(
    std::span<const ItemId> items) const {
  std::optional<uint64_t> hit = table_.Find(HashItems(items));
  if (!hit.has_value()) return std::nullopt;
  auto matches = [&](size_t idx) {
    return std::ranges::equal(itemsets_[idx].items(), items);
  };
  if (matches(*hit)) return static_cast<size_t>(*hit);
  for (size_t idx : overflow_) {
    if (matches(idx)) return idx;
  }
  return std::nullopt;
}

void ItemsetPerfectSet::Clear() {
  table_ = DynamicPerfectHash();
  itemsets_.clear();
  overflow_.clear();
}

}  // namespace corrmine::hash
