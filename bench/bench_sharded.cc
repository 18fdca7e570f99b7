// Counting throughput of the shard-native batch path against the scalar
// per-candidate submask stream the level-wise miner used before the batch
// API existed. The workload is one mining level's counting: every proper
// submask of every candidate must be answered (contingency tables need all
// 2^k cells). The old path issues one CountAllPresent per (candidate,
// submask); the new path deduplicates the level's submask queries — sibling
// candidates share almost all proper subsets — and answers them with a
// single CountAllPresentBatch against a ShardedCountProvider.
//
// Throughput is measured in *logical* counts/sec (per-candidate submask
// counts delivered), so both paths are scored on the same work product; the
// batch path's advantage is doing less physical counting for it. Emits one
// "BENCH_JSON " line (the BENCH_sharded.json seed), the human table, and
// the standard BENCH_METRICS tail.
//
// Determinism contract: every (shards, threads) configuration must deliver
// exactly the scalar baseline's counts; the harness CHECK-fails otherwise.

#include <algorithm>
#include <chrono>

#include "bench_metrics.h"
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "datagen/quest_generator.h"
#include "io/table_printer.h"
#include "itemset/count_provider.h"
#include "itemset/sharded_database.h"

namespace corrmine {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double SafeRatio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// The level's deduplicated query plan: every non-empty submask of every
/// candidate, each distinct itemset queried once, with per-candidate rows
/// of indices into the query list. Queries are sorted by size, then
/// lexicographically (as out-of-core pass 2 sorts its candidate union), so
/// the blocked executor sees the prefix-run stream every library caller
/// sends.
struct QueryPlan {
  std::vector<Itemset> queries;
  std::vector<uint32_t> rows;  // candidate-major, (2^k - 1) entries each
  uint32_t cells_per_candidate = 0;

  static QueryPlan Build(const std::vector<Itemset>& candidates, int level) {
    QueryPlan plan;
    plan.cells_per_candidate = (uint32_t{1} << level) - 1;
    std::unordered_map<Itemset, uint32_t, ItemsetHasher> index;
    plan.rows.reserve(candidates.size() * plan.cells_per_candidate);
    for (const Itemset& cand : candidates) {
      for (uint32_t mask = 1; mask < (uint32_t{1} << level); ++mask) {
        std::vector<ItemId> items;
        for (int j = 0; j < level; ++j) {
          if (mask & (uint32_t{1} << j)) items.push_back(cand.item(j));
        }
        Itemset subset(std::move(items));
        auto [it, inserted] =
            index.emplace(subset, static_cast<uint32_t>(plan.queries.size()));
        if (inserted) plan.queries.push_back(std::move(subset));
        plan.rows.push_back(it->second);
      }
    }
    std::vector<uint32_t> order(plan.queries.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const Itemset& x = plan.queries[a];
      const Itemset& y = plan.queries[b];
      if (x.size() != y.size()) return x.size() < y.size();
      return x < y;
    });
    std::vector<uint32_t> rank(order.size());
    std::vector<Itemset> sorted(order.size());
    for (uint32_t pos = 0; pos < order.size(); ++pos) {
      rank[order[pos]] = pos;
      sorted[pos] = std::move(plan.queries[order[pos]]);
    }
    plan.queries = std::move(sorted);
    for (uint32_t& row : plan.rows) row = rank[row];
    return plan;
  }
};

struct Run {
  size_t shards;
  int threads;
  double seconds;
  double counts_per_sec;
};

}  // namespace
}  // namespace corrmine

int main() {
  using namespace corrmine;

  // Quest workload dense enough that level-3 candidates over the most
  // frequent items all have non-trivial counts.
  datagen::QuestOptions quest;
  quest.num_transactions = 8000;
  quest.num_items = 120;
  quest.avg_transaction_size = 10.0;
  quest.num_patterns = 40;
  auto db = datagen::GenerateQuestData(quest);
  CORRMINE_CHECK(db.ok());

  // One mining level's worth of candidates: every triple over the 40 most
  // frequent items (C(40,3) = 9880 candidates, 7 submask counts each).
  std::vector<std::pair<uint64_t, ItemId>> by_count;
  for (ItemId i = 0; i < db->num_items(); ++i) {
    by_count.emplace_back(db->ItemCount(i), i);
  }
  std::sort(by_count.rbegin(), by_count.rend());
  constexpr size_t kTopItems = 40;
  std::vector<ItemId> top;
  for (size_t i = 0; i < kTopItems && i < by_count.size(); ++i) {
    top.push_back(by_count[i].second);
  }
  std::sort(top.begin(), top.end());

  constexpr int kLevel = 3;
  std::vector<Itemset> candidates;
  for (size_t a = 0; a < top.size(); ++a) {
    for (size_t b = a + 1; b < top.size(); ++b) {
      for (size_t c = b + 1; c < top.size(); ++c) {
        candidates.push_back(Itemset{top[a], top[b], top[c]});
      }
    }
  }
  QueryPlan plan = QueryPlan::Build(candidates, kLevel);
  const uint64_t logical_counts =
      static_cast<uint64_t>(candidates.size()) * plan.cells_per_candidate;

  // Baseline: the pre-batch hot path — one scalar CountAllPresent per
  // (candidate, submask), single shard, single thread, no deduplication.
  ShardedTransactionDatabase one_shard =
      ShardedTransactionDatabase::Partition(*db, 1);
  ShardedCountProvider baseline_provider(one_shard);
  std::vector<uint64_t> expected(logical_counts);
  // Best-of-N timing throughout: single runs are in the low milliseconds,
  // where scheduler noise swamps the signal; the minimum is the standard
  // jitter-robust estimator for a deterministic workload.
  constexpr int kReps = 5;
  double baseline_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto baseline_start = std::chrono::steady_clock::now();
    size_t slot = 0;
    for (const Itemset& cand : candidates) {
      for (uint32_t mask = 1; mask < (uint32_t{1} << kLevel); ++mask) {
        std::vector<ItemId> items;
        for (int j = 0; j < kLevel; ++j) {
          if (mask & (uint32_t{1} << j)) items.push_back(cand.item(j));
        }
        expected[slot++] = baseline_provider.CountAllPresent(
            Itemset(std::move(items)));
      }
    }
    double seconds = SecondsSince(baseline_start);
    if (rep == 0 || seconds < baseline_seconds) baseline_seconds = seconds;
  }
  double baseline_throughput =
      SafeRatio(static_cast<double>(logical_counts), baseline_seconds);

  // Batch path across the (shards x threads) grid. Each run re-times only
  // the counting (providers are built outside the clock, matching how a
  // session amortizes index construction across levels).
  std::vector<Run> runs;
  for (size_t shards : {1, 2, 4, 8}) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Partition(*db, shards);
    ShardedCountProvider provider(sharded);
    for (int threads : {1, 8}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
      std::vector<uint64_t> query_counts(plan.queries.size());
      double seconds = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        provider.CountAllPresentBatch(plan.queries, query_counts, pool.get());
        double rep_seconds = SecondsSince(start);
        if (rep == 0 || rep_seconds < seconds) seconds = rep_seconds;
      }

      // Deliver (and verify) the logical per-candidate counts.
      for (size_t i = 0; i < plan.rows.size(); ++i) {
        CORRMINE_CHECK(query_counts[plan.rows[i]] == expected[i])
            << "shards " << shards << " threads " << threads
            << " diverged at logical count " << i;
      }
      runs.push_back(Run{shards, threads, seconds,
                         SafeRatio(static_cast<double>(logical_counts),
                                   seconds)});
    }
  }

  // Doubles go through FormatJsonNumber: a counts_per_sec seeded as
  // "9.06e+07" loses the exact value the next statsdiff compares against.
  const auto num = [](double v) { return bench::FormatJsonNumber(v); };
  std::ostringstream json;
  json << "\"workload\":\"quest\""
       << ",\"baskets\":" << db->num_baskets()
       << ",\"items\":" << static_cast<uint64_t>(db->num_items())
       << ",\"candidates\":" << candidates.size()
       << ",\"logical_counts\":" << logical_counts
       << ",\"deduped_queries\":" << plan.queries.size()
       << ",\"baseline\":{\"shards\":1,\"threads\":1,\"scalar\":true"
       << ",\"seconds\":" << num(baseline_seconds)
       << ",\"counts_per_sec\":" << num(baseline_throughput)
       << "},\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) json << ',';
    json << "{\"shards\":" << runs[i].shards
         << ",\"threads\":" << runs[i].threads
         << ",\"seconds\":" << num(runs[i].seconds)
         << ",\"counts_per_sec\":" << num(runs[i].counts_per_sec)
         << ",\"speedup\":"
         << num(SafeRatio(runs[i].counts_per_sec, baseline_throughput))
         << '}';
  }
  json << "]";
  bench::EmitBenchJsonLine("bench_sharded", json.str());

  io::TablePrinter table({"shards", "threads", "count s", "Mcounts/s",
                          "speedup"});
  table.AddRow({"1", "1 (scalar)", io::FormatDouble(baseline_seconds, 3),
                io::FormatDouble(baseline_throughput / 1e6, 2), "1.00"});
  for (const Run& run : runs) {
    table.AddRow({std::to_string(run.shards), std::to_string(run.threads),
                  io::FormatDouble(run.seconds, 3),
                  io::FormatDouble(run.counts_per_sec / 1e6, 2),
                  io::FormatDouble(
                      SafeRatio(run.counts_per_sec, baseline_throughput),
                      2)});
  }
  std::cout << "== Shard-native batch counting vs scalar stream (quest) =="
            << "\n\n";
  table.Print(std::cout);
  std::cout << "\n" << logical_counts << " logical counts per run, "
            << plan.queries.size()
            << " physical queries after per-level dedup ("
            << io::FormatDouble(
                   SafeRatio(static_cast<double>(logical_counts),
                             static_cast<double>(plan.queries.size())),
                   1)
            << "x shared).\n";
  corrmine::bench::EmitMetricsLine("bench_sharded");
  return 0;
}
