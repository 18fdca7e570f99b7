#ifndef CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_
#define CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status_or.h"
#include "itemset/bitmap.h"
#include "itemset/itemset.h"

namespace corrmine {

/// Maps between external item names (words, attribute labels) and dense
/// ItemIds. Generators that already work in id space can skip it.
class ItemDictionary {
 public:
  ItemDictionary() = default;

  /// Returns the id of `name`, interning it on first sight.
  ItemId GetOrAdd(const std::string& name);

  /// Id lookup without interning.
  StatusOr<ItemId> Get(const std::string& name) const;

  /// Name of an id; errors if out of range.
  StatusOr<std::string> Name(ItemId id) const;

  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, ItemId> ids_;
  std::vector<std::string> names_;
};

/// The paper's basket data B = {b_1 .. b_n}: a list of baskets, each a set of
/// items from I. Rows are stored as sorted id vectors; per-item occurrence
/// counts O(i) are maintained incrementally so that expected values under
/// independence are O(1) to form.
class TransactionDatabase {
 public:
  /// `num_items` fixes the item space I = {0 .. num_items-1}. Baskets may
  /// only contain ids below it.
  explicit TransactionDatabase(ItemId num_items);

  /// Appends a basket; items are sorted/deduplicated unless already
  /// strictly increasing. Errors if any item id is out of range.
  Status AddBasket(std::vector<ItemId> items);

  /// Widens the item space to `num_items` (delta chunks may introduce ids
  /// the base dataset never saw). Existing baskets and counts are
  /// unchanged; errors if the space would shrink.
  Status GrowItemSpace(ItemId num_items);

  size_t num_baskets() const { return baskets_.size(); }
  ItemId num_items() const { return num_items_; }

  const std::vector<ItemId>& basket(size_t i) const { return baskets_[i]; }

  /// Occurrence count O(i): number of baskets containing item i.
  uint64_t ItemCount(ItemId item) const { return item_counts_[item]; }

  /// Empirical marginal p(i) = O(i)/n. Errors if the database is empty.
  StatusOr<double> ItemProbability(ItemId item) const;

  /// True if `basket(row)` contains all of `s` (merge test on sorted rows).
  bool BasketContainsAll(size_t row, const Itemset& s) const;

  /// Sum of basket sizes (number of (basket, item) pairs).
  uint64_t TotalItemOccurrences() const { return total_occurrences_; }

  /// Optional item dictionary; empty names() when generators used raw ids.
  ItemDictionary& dictionary() { return dictionary_; }
  const ItemDictionary& dictionary() const { return dictionary_; }

 private:
  ItemId num_items_;
  std::vector<std::vector<ItemId>> baskets_;
  std::vector<uint64_t> item_counts_;
  uint64_t total_occurrences_ = 0;
  ItemDictionary dictionary_;
};

/// Per-item vertical index: one Bitmap per item over the basket axis.
/// Construction is one pass over the database; afterwards any
/// all-items-present count is an AND/popcount. Appended database rows can
/// be folded in with AppendFrom — the index never needs a full rebuild on
/// delta ingestion.
class VerticalIndex {
 public:
  /// Builds bitmaps for all items of `db`. The database must not change
  /// afterwards (the index does not track it) except by appending rows,
  /// which AppendFrom catches the index up on.
  explicit VerticalIndex(const TransactionDatabase& db);

  /// Catches the index up with rows appended to `db` since it was built
  /// (or last caught up): `from_row` must equal num_baskets(). Existing
  /// bitmaps grow in place; items beyond the old space gain fresh bitmaps,
  /// so the result is byte-identical to rebuilding from scratch.
  void AppendFrom(const TransactionDatabase& db, size_t from_row);

  size_t num_baskets() const { return num_baskets_; }
  ItemId num_items() const { return static_cast<ItemId>(bitmaps_.size()); }
  const Bitmap& item_bitmap(ItemId item) const;

  /// Words per item bitmap — the unit the mining cost model counts AND
  /// operations in.
  size_t words_per_bitmap() const {
    return bitmaps_.empty() ? 0 : bitmaps_[0].words().size();
  }

  /// Number of baskets containing every item of `s`; s must be non-empty.
  uint64_t CountAllPresent(const Itemset& s) const;

 private:
  size_t num_baskets_;
  std::vector<Bitmap> bitmaps_;
};

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_
