// Ablation for the paper's Section 4 implementation choice: static hash
// tables (FKS over 64-bit keys; the miner's flat ItemsetTable over item
// arenas) versus the standard unordered containers for the NOTSIG
// membership tests driving candidate generation.

#include "common/logging.h"
#include <unordered_map>
#include <unordered_set>

#include <benchmark/benchmark.h>

#include "bench_metrics.h"

#include "hash/fks_perfect_hash.h"
#include "hash/itemset_table.h"
#include "hash/universal_hash.h"

namespace corrmine::hash {
namespace {

std::vector<uint64_t> MakeKeys(size_t count) {
  std::vector<uint64_t> keys;
  keys.reserve(count);
  SplitMix64 rng(99);
  for (size_t i = 0; i < count; ++i) keys.push_back(rng.Next());
  return keys;
}

void BM_FksLookupHit(benchmark::State& state) {
  auto keys = MakeKeys(static_cast<size_t>(state.range(0)));
  auto table = FksPerfectHash::Build(keys);
  CORRMINE_CHECK(table.ok());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Find(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_FksLookupHit)->Arg(1000)->Arg(100000);

void BM_UnorderedMapLookupHit(benchmark::State& state) {
  auto keys = MakeKeys(static_cast<size_t>(state.range(0)));
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < keys.size(); ++i) table.emplace(keys[i], i);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_UnorderedMapLookupHit)->Arg(1000)->Arg(100000);

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
