#ifndef CORRMINE_MINING_ECLAT_H_
#define CORRMINE_MINING_ECLAT_H_

#include "common/status_or.h"
#include "itemset/sharded_database.h"
#include "itemset/transaction_database.h"
#include "mining/apriori.h"

namespace corrmine {

class ThreadPool;

struct EclatOptions {
  double min_support_fraction = 0.01;
  /// Stop after this itemset size; 0 = unbounded.
  int max_level = 0;
  /// Threads for the depth-first search (1 = sequential, 0 = hardware
  /// concurrency). Each frequent singleton's subtree is mined into its own
  /// buffer and the buffers concatenated in item order, so the output is
  /// identical for any setting (the final (size, lex) sort seals it).
  int num_threads = 1;
  /// Optional borrowed pool (e.g. a MiningSession's); when null the miner
  /// creates its own for the duration of the call.
  ThreadPool* pool = nullptr;
};

/// Eclat (Zaki et al., 1997 — contemporaneous with the paper): depth-first
/// frequent-itemset mining over the *vertical* layout. Each itemset carries
/// the bitmap of baskets containing it; extending an itemset is one
/// bitmap AND, and support is a popcount. Produces exactly Apriori's
/// output, typically faster on dense data because no candidate
/// generation/scan cycle exists.
///
/// Results ordered by (size, lexicographic), matching the other miners.
/// `db`'s rows are indexed as one shard and mined as below.
StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsEclat(
    const TransactionDatabase& db, const EclatOptions& options = {});

/// Shard-native Eclat over a horizontally partitioned database: every
/// itemset carries one basket bitmap *per shard*, an extension is K
/// short ANDs instead of one long one, and support is the exact sum of
/// per-shard popcounts — the K-invariance contract of DESIGN.md §7, so the
/// output is identical to the monolithic overload for any K. The
/// "eclat.intersections" counter records one logical intersection per
/// (prefix, tail item) pair regardless of K, keeping the cost accounting
/// shard-invariant too.
StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsEclat(
    const ShardedTransactionDatabase& db, const EclatOptions& options = {});

/// The shard-native overload over per-shard indexes built already (a
/// MiningSession's provider), so the mine builds none: the singletons'
/// bitmaps are borrowed from `index`, and their supports are its exact
/// item counts.
StatusOr<std::vector<FrequentItemset>> MineFrequentItemsetsEclat(
    const ShardedCountProvider& index, const EclatOptions& options = {});

}  // namespace corrmine

#endif  // CORRMINE_MINING_ECLAT_H_
