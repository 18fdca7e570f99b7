// Ablation: the three counting strategies behind contingency-table
// construction — per-query database scan, per-item bitmaps (AND/popcount),
// and the datacube — over varying database sizes and itemset sizes.

#include "common/logging.h"
#include <benchmark/benchmark.h>

#include "bench_metrics.h"

#include "cube/datacube.h"
#include "datagen/quest_generator.h"
#include "itemset/counting_column.h"
#include "itemset/count_provider.h"

namespace corrmine {
namespace {

const TransactionDatabase& SharedDb(size_t num_baskets) {
  static auto* cache =
      new std::map<size_t, TransactionDatabase>();
  auto it = cache->find(num_baskets);
  if (it == cache->end()) {
    datagen::QuestOptions options;
    options.num_transactions = num_baskets;
    options.num_items = 200;
    options.avg_transaction_size = 12.0;
    options.num_patterns = 100;
    auto db = datagen::GenerateQuestData(options);
    CORRMINE_CHECK(db.ok());
    it = cache->emplace(num_baskets, std::move(*db)).first;
  }
  return it->second;
}

Itemset FrequentPair(const TransactionDatabase& db) {
  // The two most frequent items — worst case for scanning.
  ItemId best = 0, second = 1;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    if (db.ItemCount(i) > db.ItemCount(best)) {
      second = best;
      best = i;
    } else if (db.ItemCount(i) > db.ItemCount(second) && i != best) {
      second = i;
    }
  }
  return Itemset{best, second};
}

void BM_CountScan(benchmark::State& state) {
  const auto& db = SharedDb(static_cast<size_t>(state.range(0)));
  ScanCountProvider provider(db);
  Itemset pair = FrequentPair(db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.CountAllPresent(pair));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.num_baskets()));
}
BENCHMARK(BM_CountScan)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_CountBitmap(benchmark::State& state) {
  const auto& db = SharedDb(static_cast<size_t>(state.range(0)));
  BitmapCountProvider provider(db);
  Itemset pair = FrequentPair(db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.CountAllPresent(pair));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db.num_baskets()));
}
BENCHMARK(BM_CountBitmap)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_CountCube(benchmark::State& state) {
  const auto& db = SharedDb(static_cast<size_t>(state.range(0)));
  static auto* cubes = new std::map<size_t, DataCube>();
  auto it = cubes->find(db.num_baskets());
  if (it == cubes->end()) {
    auto cube = DataCube::Build(db, 2);
    CORRMINE_CHECK(cube.ok());
    it = cubes->emplace(db.num_baskets(), std::move(*cube)).first;
  }
  CubeCountProvider provider(it->second, &db);
  Itemset pair = FrequentPair(db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.CountAllPresent(pair));
  }
}
BENCHMARK(BM_CountCube)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_CountCompressed(benchmark::State& state) {
  const auto& db = SharedDb(static_cast<size_t>(state.range(0)));
  const CompressedVerticalIndex index(db);
  Itemset pair = FrequentPair(db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.CountAllPresent(pair));
  }
  state.counters["index_bytes"] = static_cast<double>(index.MemoryBytes());
}
BENCHMARK(BM_CountCompressed)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BitmapMultiWayAnd(benchmark::State& state) {
  const auto& db = SharedDb(10000);
  BitmapCountProvider provider(db);
  std::vector<ItemId> items;
  for (int i = 0; i < state.range(0); ++i) {
    items.push_back(static_cast<ItemId>(i));
  }
  Itemset s(items);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.CountAllPresent(s));
  }
}
BENCHMARK(BM_BitmapMultiWayAnd)->DenseRange(2, 8, 2);

void BM_VerticalIndexBuild(benchmark::State& state) {
  const auto& db = SharedDb(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    VerticalIndex index(db);
    benchmark::DoNotOptimize(index.num_baskets());
  }
}
BENCHMARK(BM_VerticalIndexBuild)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace corrmine

// Custom main (instead of BENCHMARK_MAIN) so the run ends with a
// BENCH_METRICS registry snapshot, like the harness-style benches.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  corrmine::bench::EmitMetricsLine("bench_count_provider");
  return 0;
}
