#include "mining/fp_growth.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/metrics.h"
#include "common/phase.h"

namespace corrmine {

namespace {

/// FP-tree node. Children keyed by item; header chains thread all nodes of
/// one item together for bottom-up traversal.
struct FpNode {
  ItemId item = 0;
  uint64_t count = 0;
  FpNode* parent = nullptr;
  FpNode* next_same_item = nullptr;
  std::map<ItemId, std::unique_ptr<FpNode>> children;
};

struct FpTree {
  FpNode root;
  /// Per-item chain heads plus total counts, in the tree's item order.
  std::unordered_map<ItemId, FpNode*> header;
  std::unordered_map<ItemId, uint64_t> item_counts;
  /// Items sorted by ascending total count (the mining order).
  std::vector<ItemId> items_ascending;
};

/// Inserts one (ordered) transaction with a multiplicity.
void Insert(FpTree* tree, const std::vector<ItemId>& ordered_items,
            uint64_t count) {
  FpNode* node = &tree->root;
  for (ItemId item : ordered_items) {
    auto it = node->children.find(item);
    if (it == node->children.end()) {
      auto child = std::make_unique<FpNode>();
      child->item = item;
      child->parent = node;
      child->next_same_item = tree->header[item];
      tree->header[item] = child.get();
      it = node->children.emplace(item, std::move(child)).first;
    }
    it->second->count += count;
    node = it->second.get();
  }
}

void FinalizeOrder(FpTree* tree) {
  tree->items_ascending.clear();
  for (const auto& [item, count] : tree->item_counts) {
    tree->items_ascending.push_back(item);
  }
  std::sort(tree->items_ascending.begin(), tree->items_ascending.end(),
            [&](ItemId a, ItemId b) {
              uint64_t ca = tree->item_counts[a];
              uint64_t cb = tree->item_counts[b];
              if (ca != cb) return ca < cb;
              return a > b;  // Ascending count, descending id tiebreak.
            });
}

/// Recursive FP-growth over `tree`, emitting suffix-extended itemsets.
/// `conditional_trees` tallies projections built (mining is single-threaded,
/// so a plain counter suffices).
void Mine(const FpTree& tree, const Itemset& suffix, uint64_t min_count,
          int max_level, std::vector<FrequentItemset>* out,
          uint64_t* conditional_trees) {
  for (ItemId item : tree.items_ascending) {
    uint64_t item_count = tree.item_counts.at(item);
    if (item_count < min_count) continue;
    Itemset extended = suffix.WithItem(item);
    out->push_back(FrequentItemset{extended, item_count});
    if (max_level != 0 &&
        static_cast<int>(extended.size()) >= max_level) {
      continue;
    }

    // Conditional pattern base: prefix path of every node of `item`.
    FpTree conditional;
    auto chain_it = tree.header.find(item);
    for (FpNode* node = chain_it == tree.header.end() ? nullptr
                                                      : chain_it->second;
         node != nullptr; node = node->next_same_item) {
      std::vector<ItemId> path;
      for (FpNode* up = node->parent; up != nullptr && up->parent != nullptr;
           up = up->parent) {
        path.push_back(up->item);
      }
      if (path.empty()) continue;
      std::reverse(path.begin(), path.end());
      for (ItemId path_item : path) {
        conditional.item_counts[path_item] += node->count;
      }
      Insert(&conditional, path, node->count);
    }
    // Drop infrequent items from the conditional counts (their nodes stay
    // in the conditional tree but are never used as extension anchors, and
    // they cannot appear in paths above frequent anchors in a way that
    // changes counts — FP-growth prunes them logically here).
    for (auto it = conditional.item_counts.begin();
         it != conditional.item_counts.end();) {
      if (it->second < min_count) {
        it = conditional.item_counts.erase(it);
      } else {
        ++it;
      }
    }
    if (!conditional.item_counts.empty()) {
      ++*conditional_trees;
      FinalizeOrder(&conditional);
      Mine(conditional, extended, min_count, max_level, out,
           conditional_trees);
    }
  }
}

}  // namespace

StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsFpGrowth(
    const TransactionDatabase& db, const FpGrowthOptions& options) {
  if (db.num_baskets() == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }
  if (!(options.min_support_fraction > 0.0 &&
        options.min_support_fraction <= 1.0)) {
    return Status::InvalidArgument("min_support_fraction must be in (0,1]");
  }
  uint64_t n = db.num_baskets();
  uint64_t min_count = static_cast<uint64_t>(std::ceil(
      options.min_support_fraction * static_cast<double>(n) - 1e-9));
  if (min_count == 0) min_count = 1;

  // Global frequency order (descending count for tree compression).
  std::vector<ItemId> order;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    if (db.ItemCount(i) >= min_count) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (db.ItemCount(a) != db.ItemCount(b)) {
      return db.ItemCount(a) > db.ItemCount(b);
    }
    return a < b;
  });
  std::unordered_map<ItemId, uint32_t> rank;
  for (uint32_t r = 0; r < order.size(); ++r) rank.emplace(order[r], r);

  FpTree tree;
  for (ItemId item : order) tree.item_counts[item] = db.ItemCount(item);
  FinalizeOrder(&tree);
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    std::vector<ItemId> filtered;
    for (ItemId item : db.basket(row)) {
      if (rank.count(item)) filtered.push_back(item);
    }
    std::sort(filtered.begin(), filtered.end(), [&](ItemId a, ItemId b) {
      return rank[a] < rank[b];
    });
    if (!filtered.empty()) Insert(&tree, filtered, 1);
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  Phase phase(registry, "fp_growth.mine");
  std::vector<FrequentItemset> result;
  uint64_t conditional_trees = 0;
  Mine(tree, Itemset{}, min_count, options.max_level, &result,
       &conditional_trees);
  registry.GetCounter("fp_growth.conditional_trees")->Add(conditional_trees);
  registry.GetCounter("fp_growth.frequent")->Add(result.size());
  std::sort(result.begin(), result.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.itemset.size() != b.itemset.size()) {
                return a.itemset.size() < b.itemset.size();
              }
              return a.itemset < b.itemset;
            });
  return result;
}

}  // namespace corrmine
