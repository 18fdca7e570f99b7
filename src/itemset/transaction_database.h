#ifndef CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_
#define CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_

#include <span>
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

/// Per-item vertical index: one bitmap per item over the basket axis, plus
/// the exact per-item occurrence counts O(i). The bitmaps share one
/// item-major word arena — item i's words_per_bitmap() words start at
/// item_words(i) — so an item costs its words and its count, nothing more.
/// Built in one pass over a database's rows, or filled row by row (SetRow)
/// by a reader that never materialises rows; afterwards any
/// all-items-present count is an AND/popcount.
///
/// The first sizing is exact. Growing past it re-lays the arena out with
/// at least an eighth more words per item than asked, so a run of small
/// appends (delta chunks, CMB1 segments) copies the index only
/// geometrically often.
class VerticalIndex {
 public:
  /// An index of `num_items` items over `num_baskets` empty rows.
  VerticalIndex(ItemId num_items, size_t num_baskets);

  /// Builds bitmaps for all items of `db`; `db` may be discarded afterwards.
  explicit VerticalIndex(const TransactionDatabase& db);

  /// Widens the index to `num_items` items and `num_baskets` rows; new
  /// bits are 0. Never shrinks.
  void Grow(ItemId num_items, size_t num_baskets);

  /// Sets row `row`'s bits for `items`, which must be strictly increasing
  /// ids below num_items(), and counts them in ItemCount. Each row is set
  /// once.
  void SetRow(size_t row, std::span<const ItemId> items) {
    uint64_t* column = words_.data() + (row >> 6);
    const uint64_t bit = uint64_t{1} << (row & 63);
    for (const ItemId item : items) {
      column[item * pitch_] |= bit;
      ++item_counts_[item];
    }
  }

  size_t num_baskets() const { return num_baskets_; }
  ItemId num_items() const { return static_cast<ItemId>(item_counts_.size()); }

  /// Item `item`'s bitmap: words_per_bitmap() words, bit b set iff basket
  /// b contains the item (bits past num_baskets() are 0).
  const uint64_t* item_words(ItemId item) const;

  /// Occurrence count O(i) over this index's rows.
  uint64_t ItemCount(ItemId item) const { return item_counts_[item]; }

  /// Words per item bitmap — the unit the mining cost model counts AND
  /// operations in.
  size_t words_per_bitmap() const { return (num_baskets_ + 63) / 64; }

  /// Bytes of the word arena, growth slack included.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Number of baskets containing every item of `s`; s must be non-empty.
  uint64_t CountAllPresent(const Itemset& s) const;

 private:
  size_t num_baskets_ = 0;
  /// Words from one item's bitmap to the next: words_per_bitmap() plus the
  /// slack growth left.
  size_t pitch_ = 0;
  std::vector<uint64_t> words_;
  std::vector<uint64_t> item_counts_;
};

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_TRANSACTION_DATABASE_H_
