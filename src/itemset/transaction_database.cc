#include "itemset/transaction_database.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "itemset/bitmap.h"

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

VerticalIndex::VerticalIndex(const TransactionDatabase& db)
    : num_baskets_(db.num_baskets()) {
  bitmaps_.reserve(db.num_items());
  for (ItemId i = 0; i < db.num_items(); ++i) {
    bitmaps_.emplace_back(num_baskets_);
  }
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    for (ItemId item : db.basket(row)) {
      bitmaps_[item].Set(row);
    }
  }
}

void VerticalIndex::AppendFrom(const TransactionDatabase& db,
                               size_t from_row) {
  CORRMINE_CHECK(from_row == num_baskets_)
      << "AppendFrom row gap: index has " << num_baskets_
      << " baskets, caller resumes at " << from_row;
  CORRMINE_CHECK(db.num_baskets() >= from_row)
      << "database shrank under the index";
  num_baskets_ = db.num_baskets();
  for (Bitmap& bitmap : bitmaps_) bitmap.Resize(num_baskets_);
  for (ItemId i = static_cast<ItemId>(bitmaps_.size()); i < db.num_items();
       ++i) {
    bitmaps_.emplace_back(num_baskets_);
  }
  for (size_t row = from_row; row < num_baskets_; ++row) {
    for (ItemId item : db.basket(row)) {
      bitmaps_[item].Set(row);
    }
  }
}

const Bitmap& VerticalIndex::item_bitmap(ItemId item) const {
  CORRMINE_CHECK(item < bitmaps_.size()) << "item id out of range";
  return bitmaps_[item];
}

uint64_t VerticalIndex::CountAllPresent(const Itemset& s) const {
  CORRMINE_CHECK(!s.empty()) << "CountAllPresent requires a non-empty set";
  if (s.size() == 1) return bitmaps_[s.item(0)].Count();
  if (s.size() == 2) {
    return bitmaps_[s.item(0)].AndCount(bitmaps_[s.item(1)]);
  }
  std::vector<const Bitmap*> maps;
  maps.reserve(s.size());
  for (ItemId item : s) maps.push_back(&bitmaps_[item]);
  return MultiAndCount(maps);
}

}  // namespace corrmine
