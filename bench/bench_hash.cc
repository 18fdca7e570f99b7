// Ablation for the paper's Section 4 implementation choice: the miner's
// static flat ItemsetTable over item arenas versus a standard unordered
// set for the NOTSIG membership tests driving candidate generation.

#include "common/logging.h"
#include <unordered_set>

#include <benchmark/benchmark.h>

#include "bench_metrics.h"

#include "hash/itemset_table.h"

namespace corrmine::hash {
namespace {

/// Every width-`width` itemset over items [0, universe) in lex order,
/// split by item-sum parity: even sums are the members, odd sums the
/// misses (same width, so a miss walks a probe sequence, not a size check).
struct ItemsetWorkload {
  std::vector<Itemset> members;
  std::vector<Itemset> misses;
};

ItemsetWorkload MakeItemsets(size_t width) {
  const ItemId universe = width == 2 ? 200 : 120;
  ItemsetWorkload out;
  std::vector<ItemId> items(width);
  auto emit = [&](auto&& self, size_t pos, ItemId first, uint64_t sum) {
    if (pos == width) {
      (sum % 2 == 0 ? out.members : out.misses).push_back(Itemset(items));
      return;
    }
    for (ItemId item = first; item < universe; ++item) {
      items[pos] = item;
      self(self, pos + 1, item + 1, sum + item);
    }
  };
  emit(emit, 0, 0, 0);
  return out;
}

ItemsetTable BuildTable(const std::vector<Itemset>& members,
                              size_t width) {
  std::vector<ItemId> arena;
  for (const Itemset& s : members) {
    arena.insert(arena.end(), s.begin(), s.end());
  }
  auto table = ItemsetTable::Build(width, std::move(arena));
  CORRMINE_CHECK(table.ok()) << table.status().ToString();
  return std::move(*table);
}

// Arg = itemset width: pairs over 200 items (9 900 members) or triples over
// 120 items (140 420 members, past L2).
void BM_ItemsetTableFindHit(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  ItemsetWorkload work = MakeItemsets(width);
  ItemsetTable table = BuildTable(work.members, width);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Find(work.members[i++ % work.members.size()].items()));
  }
}
BENCHMARK(BM_ItemsetTableFindHit)->Arg(2)->Arg(3);

void BM_ItemsetTableFindMiss(benchmark::State& state) {
  const size_t width = static_cast<size_t>(state.range(0));
  ItemsetWorkload work = MakeItemsets(width);
  ItemsetTable table = BuildTable(work.members, width);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Find(work.misses[i++ % work.misses.size()].items()));
  }
}
BENCHMARK(BM_ItemsetTableFindMiss)->Arg(2)->Arg(3);

void BM_UnorderedItemsetSetHit(benchmark::State& state) {
  ItemsetWorkload work = MakeItemsets(static_cast<size_t>(state.range(0)));
  std::unordered_set<Itemset, ItemsetHasher> set(work.members.begin(),
                                                 work.members.end());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        set.count(work.members[i++ % work.members.size()]));
  }
}
BENCHMARK(BM_UnorderedItemsetSetHit)->Arg(2)->Arg(3);

void BM_UnorderedItemsetSetMiss(benchmark::State& state) {
  ItemsetWorkload work = MakeItemsets(static_cast<size_t>(state.range(0)));
  std::unordered_set<Itemset, ItemsetHasher> set(work.members.begin(),
                                                 work.members.end());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.count(work.misses[i++ % work.misses.size()]));
  }
}
BENCHMARK(BM_UnorderedItemsetSetMiss)->Arg(2)->Arg(3);

}  // namespace
}  // namespace corrmine::hash

// Custom main (instead of BENCHMARK_MAIN) so the run ends with a
// BENCH_METRICS registry snapshot, like the harness-style benches.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  corrmine::bench::EmitMetricsLine("bench_hash");
  return 0;
}
