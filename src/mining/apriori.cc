#include "mining/apriori.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "common/metrics.h"
#include "common/phase.h"
#include "common/thread_pool.h"

namespace corrmine {

namespace {

/// Apriori-gen: join frequent k-sets sharing a (k-1)-prefix, then prune
/// joins with an infrequent subset. `frequent` must be sorted.
std::vector<Itemset> AprioriGen(
    const std::vector<Itemset>& frequent,
    const std::unordered_set<Itemset, ItemsetHasher>& frequent_set) {
  std::vector<Itemset> candidates;
  for (size_t i = 0; i < frequent.size(); ++i) {
    for (size_t j = i + 1; j < frequent.size(); ++j) {
      const Itemset& a = frequent[i];
      const Itemset& b = frequent[j];
      bool shared_prefix = true;
      for (size_t t = 0; t + 1 < a.size(); ++t) {
        if (a.item(t) != b.item(t)) {
          shared_prefix = false;
          break;
        }
      }
      if (!shared_prefix) break;
      Itemset joined = a.Union(b);
      if (joined.size() != a.size() + 1) continue;
      bool all_frequent = true;
      for (const Itemset& subset : joined.SubsetsMissingOne()) {
        if (!frequent_set.count(subset)) {
          all_frequent = false;
          break;
        }
      }
      if (all_frequent) candidates.push_back(std::move(joined));
    }
  }
  return candidates;
}

}  // namespace

StatusOr<std::vector<FrequentItemset>> MineFrequentItemsets(
    const CountProvider& provider, ItemId num_items,
    const AprioriOptions& options) {
  if (provider.num_baskets() == 0) {
    return Status::FailedPrecondition("mining an empty database");
  }
  if (!(options.min_support_fraction > 0.0 &&
        options.min_support_fraction <= 1.0)) {
    return Status::InvalidArgument("min_support_fraction must be in (0,1]");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  uint64_t n = provider.num_baskets();
  uint64_t min_count = static_cast<uint64_t>(
      std::ceil(options.min_support_fraction * static_cast<double>(n) -
                1e-9));
  if (min_count == 0) min_count = 1;

  MetricsRegistry& registry = MetricsRegistry::Global();
  Phase phase(registry, "apriori.mine");
  Counter* candidates_counted = registry.GetCounter("apriori.candidates");
  Counter* frequent_found = registry.GetCounter("apriori.frequent");

  const int threads = ThreadPool::ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads - 1);
    pool = owned_pool.get();
  }

  // One CountAllPresentBatch per level: the provider answers the whole
  // candidate frontier at once (bitmap providers parallelize over the
  // query axis, sharded providers over their shards). Counts land in
  // index-addressed slots, so the sequential filter below sees the same
  // counts in the same order regardless of thread or shard count.
  auto count_all = [&](const std::vector<Itemset>& candidates,
                       std::vector<uint64_t>* counts) -> Status {
    candidates_counted->Add(candidates.size());
    counts->assign(candidates.size(), 0);
    provider.CountAllPresentBatch(candidates, *counts, pool);
    return Status::OK();
  };

  std::vector<FrequentItemset> result;

  // L1.
  std::vector<Itemset> singletons;
  singletons.reserve(num_items);
  for (ItemId i = 0; i < num_items; ++i) singletons.push_back(Itemset{i});
  std::vector<uint64_t> counts;
  CORRMINE_RETURN_NOT_OK(count_all(singletons, &counts));
  std::vector<Itemset> frequent;
  for (ItemId i = 0; i < num_items; ++i) {
    if (counts[i] >= min_count) {
      result.push_back(FrequentItemset{singletons[i], counts[i]});
      frequent.push_back(std::move(singletons[i]));
    }
  }

  int level = 2;
  while (!frequent.empty() &&
         (options.max_level == 0 || level <= options.max_level)) {
    std::unordered_set<Itemset, ItemsetHasher> frequent_set(frequent.begin(),
                                                            frequent.end());
    std::sort(frequent.begin(), frequent.end());
    std::vector<Itemset> candidates = AprioriGen(frequent, frequent_set);
    frequent.clear();
    CORRMINE_RETURN_NOT_OK(count_all(candidates, &counts));
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] >= min_count) {
        frequent.push_back(candidates[i]);
        result.push_back(FrequentItemset{std::move(candidates[i]), counts[i]});
      }
    }
    ++level;
  }
  frequent_found->Add(result.size());
  return result;
}

}  // namespace corrmine
