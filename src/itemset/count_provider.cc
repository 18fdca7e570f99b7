#include "itemset/count_provider.h"

#include "common/logging.h"
#include "common/metrics.h"
#include "itemset/kernels.h"

namespace corrmine {

CountProvider::CountProvider()
    : scalar_calls_(
          MetricsRegistry::Global().GetCounter("count_provider.scalar_calls")),
      batch_calls_(
          MetricsRegistry::Global().GetCounter("count_provider.batch_calls")),
      batch_queries_(MetricsRegistry::Global().GetCounter(
          "count_provider.batch_queries")) {}

void CountProvider::BumpScalar() const { scalar_calls_->Add(); }

void CountProvider::BumpBatch(size_t num_queries) const {
  batch_calls_->Add();
  batch_queries_->Add(num_queries);
}

void CountProvider::CountAllPresentBatch(std::span<const Itemset> queries,
                                         std::span<uint64_t> counts,
                                         ThreadPool* pool) const {
  CORRMINE_CHECK(queries.size() == counts.size())
      << "batch spans disagree: " << queries.size() << " queries, "
      << counts.size() << " count slots";
  BumpBatch(queries.size());
  if (queries.empty()) return;
  CountAllPresentBatchImpl(queries, counts, pool);
}

void CountProvider::CountAllPresentBatchUncounted(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  CORRMINE_CHECK(queries.size() == counts.size())
      << "batch spans disagree: " << queries.size() << " queries, "
      << counts.size() << " count slots";
  if (queries.empty()) return;
  CountAllPresentBatchImpl(queries, counts, pool);
}

void CountProvider::CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                             std::span<uint64_t> counts,
                                             ThreadPool* pool) const {
  (void)pool;  // The generic fallback has no parallel structure to exploit.
  for (size_t i = 0; i < queries.size(); ++i) {
    counts[i] = CountAllPresentImpl(queries[i]);
  }
}

uint64_t ScanCountProvider::CountAllPresentImpl(const Itemset& s) const {
  CORRMINE_CHECK(!s.empty()) << "CountAllPresent requires a non-empty set";
  uint64_t count = 0;
  for (size_t row = 0; row < db_.num_baskets(); ++row) {
    if (db_.BasketContainsAll(row, s)) ++count;
  }
  return count;
}

void BitmapCountProvider::CountAllPresentBatchImpl(
    std::span<const Itemset> queries, std::span<uint64_t> counts,
    ThreadPool* pool) const {
  // Stripe-major execution (DESIGN.md §9) over the one index: the batch
  // routine ShardedCountProvider runs over K.
  const VerticalIndex* index = &index_;
  CountBlockedBatch(BlockedCountPlan::Build(queries),
                    std::span<const VerticalIndex* const>(&index, 1), counts,
                    pool);
}

}  // namespace corrmine
