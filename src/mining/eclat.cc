#include "mining/eclat.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "common/metrics.h"
#include "common/phase.h"
#include "common/thread_pool.h"
#include "itemset/kernels.h"

namespace corrmine {

namespace {

/// Per-shard basket set of an itemset: one bitmap per shard, borrowed from
/// the shard indexes for singletons and from the owning extension below
/// them. Support is the sum of per-shard popcounts, exact by construction.
using ShardedRows = std::vector<const uint64_t*>;

struct EclatState {
  uint64_t min_count;
  int max_level;  // 0 = unbounded.
  /// Words per bitmap in each shard, and their sum.
  const std::vector<size_t>* shard_words;
  size_t total_words;
  std::vector<FrequentItemset>* out;
  /// Tidset intersections performed in this branch (private per branch so
  /// the hot loop stays atomic-free; summed into the registry at the end).
  uint64_t* intersections;
};

/// Depth-first extension: `prefix` is frequent with basket sets
/// `prefix_rows`; `tail` holds the frequent items greater than prefix's
/// last item, each with its own per-shard bitmaps. One *logical*
/// intersection per tail item (K short per-shard ANDs), counted once so
/// "eclat.intersections" is K-invariant. The fused and_count_into kernel
/// materializes the joined bitmaps and counts them in one pass, and the
/// count is kept so the emit below never re-popcounts them.
void Extend(const Itemset& prefix, const ShardedRows& prefix_rows,
            const std::vector<std::pair<ItemId, const ShardedRows*>>& tail,
            const EclatState& state) {
  if (state.max_level != 0 &&
      static_cast<int>(prefix.size()) >= state.max_level) {
    return;
  }
  const CountingKernels& kernels = ActiveKernels();
  const std::vector<size_t>& shard_words = *state.shard_words;
  // A surviving extension keeps its K joined bitmaps back to back in one
  // buffer; a failed one leaves the buffer for the next tail item.
  std::vector<std::pair<ItemId, std::vector<uint64_t>>> extensions;
  std::vector<uint64_t> extension_counts;
  std::vector<uint64_t> joined;
  for (const auto& [item, rows] : tail) {
    ++*state.intersections;
    joined.resize(state.total_words);
    uint64_t count = 0;
    size_t offset = 0;
    for (size_t s = 0; s < prefix_rows.size(); ++s) {
      count += kernels.and_count_into(joined.data() + offset, prefix_rows[s],
                                      (*rows)[s], shard_words[s]);
      offset += shard_words[s];
    }
    if (count >= state.min_count) {
      extensions.emplace_back(item, std::move(joined));
      extension_counts.push_back(count);
      joined = {};
    }
  }
  std::vector<ShardedRows> views(extensions.size());
  for (size_t i = 0; i < extensions.size(); ++i) {
    size_t offset = 0;
    for (const size_t words : shard_words) {
      views[i].push_back(extensions[i].second.data() + offset);
      offset += words;
    }
  }
  for (size_t i = 0; i < extensions.size(); ++i) {
    Itemset extended = prefix.WithItem(extensions[i].first);
    state.out->push_back(FrequentItemset{extended, extension_counts[i]});
    std::vector<std::pair<ItemId, const ShardedRows*>> next_tail;
    for (size_t j = i + 1; j < extensions.size(); ++j) {
      next_tail.emplace_back(extensions[j].first, &views[j]);
    }
    if (!next_tail.empty()) {
      Extend(extended, views[i], next_tail, state);
    }
  }
}

Status ValidateEclatOptions(uint64_t num_baskets,
                            const EclatOptions& options) {
  if (num_baskets == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }
  if (!(options.min_support_fraction > 0.0 &&
        options.min_support_fraction <= 1.0)) {
    return Status::InvalidArgument("min_support_fraction must be in (0,1]");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::OK();
}

uint64_t EclatMinCount(uint64_t n, double min_support_fraction) {
  uint64_t min_count = static_cast<uint64_t>(
      std::ceil(min_support_fraction * static_cast<double>(n) - 1e-9));
  return min_count == 0 ? 1 : min_count;
}

/// (size, lex) order shared by all miners.
void SortFrequent(std::vector<FrequentItemset>* result) {
  std::sort(result->begin(), result->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.itemset.size() != b.itemset.size()) {
                return a.itemset.size() < b.itemset.size();
              }
              return a.itemset < b.itemset;
            });
}

}  // namespace

StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsEclat(
    const TransactionDatabase& db, const EclatOptions& options) {
  ShardedCountProvider index(db.num_items(), 1);
  index.Append(db);
  return MineFrequentItemsetsEclat(index, options);
}

StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsEclat(
    const ShardedTransactionDatabase& db, const EclatOptions& options) {
  return MineFrequentItemsetsEclat(ShardedCountProvider(db), options);
}

StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsEclat(
    const ShardedCountProvider& index, const EclatOptions& options) {
  CORRMINE_RETURN_NOT_OK(ValidateEclatOptions(index.num_baskets(), options));
  uint64_t min_count =
      EclatMinCount(index.num_baskets(), options.min_support_fraction);

  // A singleton's basket set is its bitmap in each shard's index.
  // Marginals are the index's exact per-shard sums, so the
  // frequent-singleton set is the same for any K.
  std::vector<size_t> shard_words;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    shard_words.push_back(index.shard_index(s).words_per_bitmap());
  }
  size_t total_words = 0;
  for (const size_t words : shard_words) total_words += words;
  std::vector<ItemId> frequent_ids;
  std::vector<ShardedRows> frequent_rows;
  for (ItemId i = 0; i < index.num_items(); ++i) {
    if (index.ItemCount(i) < min_count) continue;
    frequent_ids.push_back(i);
    ShardedRows rows;
    for (size_t s = 0; s < index.num_shards(); ++s) {
      rows.push_back(index.shard_index(s).item_words(i));
    }
    frequent_rows.push_back(std::move(rows));
  }

  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads - 1);
    pool = owned_pool.get();
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  Phase phase(registry, "eclat.mine");
  std::vector<std::vector<FrequentItemset>> branch_results(
      frequent_ids.size());
  std::vector<uint64_t> branch_intersections(frequent_ids.size(), 0);
  CORRMINE_RETURN_NOT_OK(ParallelFor(
      pool, frequent_ids.size(), /*grain=*/1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          EclatState state{min_count,          options.max_level,
                           &shard_words,       total_words,
                           &branch_results[i], &branch_intersections[i]};
          Itemset single{frequent_ids[i]};
          branch_results[i].push_back(
              FrequentItemset{single, index.ItemCount(frequent_ids[i])});
          std::vector<std::pair<ItemId, const ShardedRows*>> tail;
          tail.reserve(frequent_ids.size() - i - 1);
          for (size_t j = i + 1; j < frequent_ids.size(); ++j) {
            tail.emplace_back(frequent_ids[j], &frequent_rows[j]);
          }
          if (!tail.empty()) {
            Extend(single, frequent_rows[i], tail, state);
          }
        }
        return Status::OK();
      }));

  std::vector<FrequentItemset> result;
  for (std::vector<FrequentItemset>& branch : branch_results) {
    result.insert(result.end(), std::make_move_iterator(branch.begin()),
                  std::make_move_iterator(branch.end()));
  }
  uint64_t total_intersections = 0;
  for (uint64_t c : branch_intersections) total_intersections += c;
  registry.GetCounter("eclat.intersections")->Add(total_intersections);
  registry.GetCounter("eclat.frequent")->Add(result.size());

  SortFrequent(&result);
  return result;
}

}  // namespace corrmine
