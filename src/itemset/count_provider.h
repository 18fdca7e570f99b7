#ifndef CORRMINE_ITEMSET_COUNT_PROVIDER_H_
#define CORRMINE_ITEMSET_COUNT_PROVIDER_H_

#include <cstdint>
#include <span>

#include "itemset/itemset.h"
#include "itemset/transaction_database.h"

namespace corrmine {
class Counter;
class ThreadPool;
}  // namespace corrmine

namespace corrmine {

/// Answers "how many baskets contain every item of S" — the only primitive
/// contingency-table construction needs (cells with absent items follow by
/// inclusion–exclusion). Implementations trade preprocessing for lookup
/// speed; the miner is parameterized on this interface so the strategies can
/// be benchmarked against each other.
///
/// The interface comes in two grains. CountAllPresent answers one query;
/// CountAllPresentBatch answers a whole level's worth in one call, which is
/// what the level-wise miner issues (one batch per frontier — see DESIGN.md
/// §7). Providers override the batch hook when they can amortize work across
/// queries (prefix groups, word stripes, per-shard fan-out); the default
/// loops over the scalar hook, so every provider supports both grains.
///
/// Both entry points are non-virtual wrappers that tick the global
/// "count_provider.*" counters (scalar_calls, batch_calls, batch_queries) —
/// the instrumentation the batch-per-level acceptance tests assert on —
/// before dispatching to the protected *Impl virtuals.
class CountProvider {
 public:
  CountProvider();
  virtual ~CountProvider() = default;

  /// Total number of baskets n.
  virtual uint64_t num_baskets() const = 0;

  /// O(S): baskets containing all items of S. S must be non-empty and its
  /// items in range. O({i}) must equal the database's item count.
  uint64_t CountAllPresent(const Itemset& s) const {
    BumpScalar();
    return CountAllPresentImpl(s);
  }

  /// Answers `queries[i]` into `counts[i]` for every i. The spans must have
  /// equal length; every query obeys the CountAllPresent preconditions.
  /// `pool` (optional, borrowed for the call) lets the provider parallelize;
  /// results are identical — and deterministic — for any pool, including
  /// nullptr, which runs inline.
  void CountAllPresentBatch(std::span<const Itemset> queries,
                            std::span<uint64_t> counts,
                            ThreadPool* pool = nullptr) const;

  /// CountAllPresentBatch without the "count_provider.*" counter bumps —
  /// for decorators (the border-repair memo provider) that already ticked
  /// the counters for the enclosing batch and only fall through here for
  /// the subset of queries they cannot answer. Using the counted entry
  /// point would double-bump and break the schedule-independence contract
  /// those counters carry (DESIGN.md §7).
  void CountAllPresentBatchUncounted(std::span<const Itemset> queries,
                                     std::span<uint64_t> counts,
                                     ThreadPool* pool = nullptr) const;

 protected:
  /// Single-query strategy; called by the CountAllPresent wrapper and by
  /// the default batch loop.
  virtual uint64_t CountAllPresentImpl(const Itemset& s) const = 0;

  /// Batch strategy; the default answers each query via CountAllPresentImpl
  /// in order (ignoring `pool`). Overrides must write exactly the counts
  /// the scalar path would produce.
  virtual void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                        std::span<uint64_t> counts,
                                        ThreadPool* pool) const;

 private:
  void BumpScalar() const;
  void BumpBatch(size_t num_queries) const;

  // Resolved once at construction from MetricsRegistry::Global(); stable
  // pointers, so the wrappers pay one relaxed add, not a registry lookup.
  Counter* scalar_calls_;
  Counter* batch_calls_;
  Counter* batch_queries_;
};

/// Strategy A: re-scan the row store per query. No preprocessing, O(n)
/// per count; matches the paper's "make a pass over the entire database"
/// baseline cost model. The index-free reference the tests count against:
/// batches take the default loop over the scalar hook.
class ScanCountProvider : public CountProvider {
 public:
  /// `db` must outlive this provider.
  explicit ScanCountProvider(const TransactionDatabase& db) : db_(db) {}

  uint64_t num_baskets() const override { return db_.num_baskets(); }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override;

 private:
  const TransactionDatabase& db_;
};

/// Strategy B: per-item bitmaps; each count is a multi-way AND/popcount.
/// One O(total occurrences) preprocessing pass. Batches run the
/// stripe-major executor (kernels.h CountBlockedBatch), parallel over word
/// stripes: every prefix group of the batch runs against one L2-resident
/// stripe, and per-slot partial counts are added in slot order, so any
/// schedule yields identical results.
class BitmapCountProvider : public CountProvider {
 public:
  /// Builds the vertical index eagerly; `db` may be discarded afterwards.
  explicit BitmapCountProvider(const TransactionDatabase& db) : index_(db) {}

  uint64_t num_baskets() const override { return index_.num_baskets(); }

  const VerticalIndex& index() const { return index_; }

 protected:
  uint64_t CountAllPresentImpl(const Itemset& s) const override {
    return index_.CountAllPresent(s);
  }
  void CountAllPresentBatchImpl(std::span<const Itemset> queries,
                                std::span<uint64_t> counts,
                                ThreadPool* pool) const override;

 private:
  VerticalIndex index_;
};

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_COUNT_PROVIDER_H_
