#include "itemset/itemset.h"

#include <algorithm>

namespace corrmine {

Itemset::Itemset(std::vector<ItemId> items) : items_(std::move(items)) {
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
}

Itemset::Itemset(std::initializer_list<ItemId> items)
    : Itemset(std::vector<ItemId>(items)) {}

bool Itemset::Contains(ItemId item) const {
  return std::binary_search(items_.begin(), items_.end(), item);
}

bool Itemset::ContainsAll(const Itemset& other) const {
  return std::includes(items_.begin(), items_.end(), other.items_.begin(),
                       other.items_.end());
}

Itemset Itemset::Union(const Itemset& other) const {
  std::vector<ItemId> merged;
  merged.reserve(items_.size() + other.items_.size());
  std::set_union(items_.begin(), items_.end(), other.items_.begin(),
                 other.items_.end(), std::back_inserter(merged));
  Itemset result;
  result.items_ = std::move(merged);  // Already sorted and unique.
  return result;
}

Itemset Itemset::WithItem(ItemId item) const {
  if (Contains(item)) return *this;
  Itemset result = *this;
  result.items_.insert(
      std::lower_bound(result.items_.begin(), result.items_.end(), item),
      item);
  return result;
}

Itemset Itemset::WithoutItem(ItemId item) const {
  Itemset result = *this;
  auto it = std::lower_bound(result.items_.begin(), result.items_.end(), item);
  if (it != result.items_.end() && *it == item) result.items_.erase(it);
  return result;
}

std::vector<Itemset> Itemset::SubsetsMissingOne() const {
  std::vector<Itemset> subsets;
  subsets.reserve(items_.size());
  for (size_t i = 0; i < items_.size(); ++i) {
    Itemset subset;
    subset.items_.reserve(items_.size() - 1);
    for (size_t j = 0; j < items_.size(); ++j) {
      if (j != i) subset.items_.push_back(items_[j]);
    }
    subsets.push_back(std::move(subset));
  }
  return subsets;
}

uint64_t Itemset::Hash() const {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis.
  for (ItemId item : items_) {
    for (int b = 0; b < 4; ++b) {
      h ^= (item >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;  // FNV prime.
    }
  }
  return h;
}

std::string Itemset::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(items_[i]);
  }
  out += "}";
  return out;
}

}  // namespace corrmine
