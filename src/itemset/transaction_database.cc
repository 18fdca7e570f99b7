#include "itemset/transaction_database.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "itemset/bitmap.h"
#include "itemset/kernels.h"

namespace corrmine {

ItemId ItemDictionary::GetOrAdd(const std::string& name) {
  auto [it, inserted] =
      ids_.emplace(name, static_cast<ItemId>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

StatusOr<ItemId> ItemDictionary::Get(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("unknown item name: " + name);
  }
  return it->second;
}

StatusOr<std::string> ItemDictionary::Name(ItemId id) const {
  if (id >= names_.size()) {
    return Status::OutOfRange("item id out of range: " + std::to_string(id));
  }
  return names_[id];
}

TransactionDatabase::TransactionDatabase(ItemId num_items)
    : num_items_(num_items), item_counts_(num_items, 0) {}

Status TransactionDatabase::AddBasket(std::vector<ItemId> items) {
  // Decoded CMB1 rows arrive strictly increasing; only other rows (text
  // input, generators, user deltas) pay for the sort and dedup.
  if (std::adjacent_find(items.begin(), items.end(),
                         std::greater_equal<ItemId>()) != items.end()) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  }
  if (!items.empty() && items.back() >= num_items_) {
    return Status::OutOfRange("basket item id " +
                              std::to_string(items.back()) +
                              " >= num_items " + std::to_string(num_items_));
  }
  for (ItemId item : items) ++item_counts_[item];
  total_occurrences_ += items.size();
  baskets_.push_back(std::move(items));
  return Status::OK();
}

Status TransactionDatabase::GrowItemSpace(ItemId num_items) {
  if (num_items < num_items_) {
    return Status::InvalidArgument(
        "item space cannot shrink: " + std::to_string(num_items) + " < " +
        std::to_string(num_items_));
  }
  item_counts_.resize(num_items, 0);
  num_items_ = num_items;
  return Status::OK();
}

StatusOr<double> TransactionDatabase::ItemProbability(ItemId item) const {
  if (item >= num_items_) {
    return Status::OutOfRange("item id out of range");
  }
  if (baskets_.empty()) {
    return Status::FailedPrecondition("empty database has no marginals");
  }
  return static_cast<double>(item_counts_[item]) /
         static_cast<double>(baskets_.size());
}

bool TransactionDatabase::BasketContainsAll(size_t row,
                                            const Itemset& s) const {
  const std::vector<ItemId>& basket = baskets_[row];
  return std::includes(basket.begin(), basket.end(), s.begin(), s.end());
}

VerticalIndex::VerticalIndex(ItemId num_items, size_t num_baskets) {
  Grow(num_items, num_baskets);
}

VerticalIndex::VerticalIndex(const TransactionDatabase& db)
    : VerticalIndex(db.num_items(), db.num_baskets()) {
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    SetRow(row, db.basket(row));
  }
}

void VerticalIndex::Grow(ItemId num_items, size_t num_baskets) {
  CORRMINE_CHECK(num_items >= this->num_items() && num_baskets >= num_baskets_)
      << "VerticalIndex cannot shrink";
  const size_t words = (num_baskets + 63) / 64;
  if (words > pitch_) {
    const size_t pitch = std::max(words, pitch_ + pitch_ / 8);
    std::vector<uint64_t> arena(static_cast<size_t>(num_items) * pitch, 0);
    for (size_t item = 0; item < item_counts_.size(); ++item) {
      std::copy_n(words_.data() + item * pitch_, words_per_bitmap(),
                  arena.data() + item * pitch);
    }
    words_ = std::move(arena);
    pitch_ = pitch;
  } else {
    words_.resize(static_cast<size_t>(num_items) * pitch_, 0);
  }
  num_baskets_ = num_baskets;
  item_counts_.resize(num_items, 0);
}

const uint64_t* VerticalIndex::item_words(ItemId item) const {
  CORRMINE_CHECK(item < num_items()) << "item id out of range";
  return words_.data() + static_cast<size_t>(item) * pitch_;
}

uint64_t VerticalIndex::CountAllPresent(const Itemset& s) const {
  CORRMINE_CHECK(!s.empty()) << "CountAllPresent requires a non-empty set";
  if (s.size() == 2) {
    return ActiveKernels().and_count(item_words(s.item(0)),
                                     item_words(s.item(1)),
                                     words_per_bitmap());
  }
  std::vector<const uint64_t*> operands;
  operands.reserve(s.size());
  for (ItemId item : s) operands.push_back(item_words(item));
  return MultiAndCount(std::move(operands), words_per_bitmap());
}

}  // namespace corrmine
