#include "itemset/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "itemset/transaction_database.h"

namespace corrmine {

namespace {

/// Can this processor execute `isa`? Compile-in (factory non-null) and
/// run-on (this check) are independent: a binary built on an AVX-512
/// machine must still run — on its scalar path — on an older CPU.
bool CpuSupports(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
    case KernelIsa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vpopcntdq");
#else
      return false;
#endif
    case KernelIsa::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on AArch64.
#else
      return false;
#endif
  }
  return false;
}

/// Highest-throughput kernel this process can run.
const CountingKernels* BestKernels() {
  for (const CountingKernels* k :
       {Avx512Kernels(), Avx2Kernels(), NeonKernels()}) {
    if (k != nullptr && CpuSupports(k->isa)) return k;
  }
  return ScalarKernels();
}

std::atomic<const CountingKernels*> g_active{nullptr};

std::mutex g_requested_mu;
std::string& RequestedStorage() {
  static std::string requested = "auto";
  return requested;
}

/// One-time CORRMINE_KERNEL resolution. Runs only if nothing (the CLI
/// --kernel flag, a test) called SetActiveKernel first — an explicit
/// in-process choice outranks the environment.
void InitFromEnvironment() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("CORRMINE_KERNEL");
    if (env != nullptr && *env != '\0') {
      Status status = SetActiveKernel(env);
      if (!status.ok()) {
        std::fprintf(stderr, "CORRMINE_KERNEL ignored: %s\n",
                     status.ToString().c_str());
      }
    }
    const CountingKernels* expected = nullptr;
    g_active.compare_exchange_strong(expected, BestKernels(),
                                     std::memory_order_acq_rel);
  });
}

}  // namespace

const CountingKernels& ActiveKernels() {
  const CountingKernels* active = g_active.load(std::memory_order_acquire);
  if (active != nullptr) return *active;
  InitFromEnvironment();
  return *g_active.load(std::memory_order_acquire);
}

const char* ActiveKernelName() { return ActiveKernels().name; }

std::string RequestedKernelName() {
  ActiveKernels();  // Ensure the environment has been consulted.
  std::lock_guard<std::mutex> lock(g_requested_mu);
  return RequestedStorage();
}

Status SetActiveKernel(std::string_view name) {
  if (name.empty() || name == "auto") {
    g_active.store(BestKernels(), std::memory_order_release);
    std::lock_guard<std::mutex> lock(g_requested_mu);
    RequestedStorage() = "auto";
    return Status::OK();
  }
  const std::array<const CountingKernels* (*)(), 4> factories = {
      ScalarKernels, Avx2Kernels, Avx512Kernels, NeonKernels};
  const std::array<const char*, 4> known = {"scalar", "avx2", "avx512",
                                            "neon"};
  for (size_t i = 0; i < known.size(); ++i) {
    if (name != known[i]) continue;
    const CountingKernels* kernels = factories[i]();
    if (kernels == nullptr) {
      return Status::InvalidArgument(
          "kernel \"" + std::string(name) +
          "\" is not compiled into this binary (available: " +
          AvailableKernelNames() + ")");
    }
    if (!CpuSupports(kernels->isa)) {
      return Status::InvalidArgument(
          "kernel \"" + std::string(name) +
          "\" is not supported by this CPU (available: " +
          AvailableKernelNames() + ")");
    }
    g_active.store(kernels, std::memory_order_release);
    std::lock_guard<std::mutex> lock(g_requested_mu);
    RequestedStorage() = std::string(name);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown kernel \"" + std::string(name) +
                                 "\" (available: " + AvailableKernelNames() +
                                 ", or \"auto\")");
}

std::vector<const CountingKernels*> AvailableKernels() {
  std::vector<const CountingKernels*> available;
  for (const CountingKernels* k : {ScalarKernels(), NeonKernels(),
                                   Avx2Kernels(), Avx512Kernels()}) {
    if (k != nullptr && CpuSupports(k->isa)) available.push_back(k);
  }
  return available;
}

std::string AvailableKernelNames() {
  std::string names;
  for (const CountingKernels* k : AvailableKernels()) {
    if (!names.empty()) names += ", ";
    names += k->name;
  }
  return names;
}

BlockedCountPlan BlockedCountPlan::Build(std::span<const Itemset> queries) {
  BlockedCountPlan plan;
  plan.num_queries = queries.size();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Itemset& s = queries[qi];
    CORRMINE_CHECK(!s.empty()) << "blocked plan requires non-empty queries";
    // A singleton is its own prefix, answered by one popcount of the
    // group's prefix block; a larger query extends its (size-1)-prefix.
    const bool self = s.size() == 1;
    const size_t prefix_len = self ? 1 : s.size() - 1;
    const std::span<const ItemId> prefix(s.items().data(), prefix_len);
    if (plan.groups.empty() ||
        !std::ranges::equal(plan.groups.back().prefix.items(), prefix)) {
      plan.groups.emplace_back();
      plan.groups.back().prefix =
          Itemset(std::vector<ItemId>(prefix.begin(), prefix.end()));
    }
    Group& group = plan.groups.back();
    if (self) {
      group.self_queries.push_back(static_cast<uint32_t>(qi));
    } else {
      group.ext_items.push_back(s.item(prefix_len));
      group.ext_queries.push_back(static_cast<uint32_t>(qi));
    }
  }
  return plan;
}

void ExecuteBlockedGroups(const BlockedCountPlan& plan, size_t group_begin,
                          size_t group_end, const VerticalIndex& index,
                          std::span<uint64_t> counts, BlockedExecStats* stats,
                          BlockedExecScratch* scratch) {
  CORRMINE_CHECK(counts.size() == plan.num_queries)
      << "blocked plan answers " << plan.num_queries << " queries into "
      << counts.size() << " slots";
  const CountingKernels& kernels = ActiveKernels();
  const size_t words = index.words_per_bitmap();

  // Scratch reused across groups. Morsel callers pass a per-slot arena so
  // the buffers survive across every morsel that slot runs; bare callers
  // get a thread-local fallback.
  thread_local BlockedExecScratch tls_scratch;
  BlockedExecScratch& s = scratch != nullptr ? *scratch : tls_scratch;
  std::vector<uint64_t>& tile = s.tile;
  if (tile.size() < kKernelTileWords) tile.resize(kKernelTileWords);
  std::array<const uint64_t*, 32> prefix_cols;
  std::array<const uint64_t*, 32> tile_ops;
  std::vector<const uint64_t*>& ext_cols = s.ext_cols;
  std::vector<uint64_t>& ext_acc = s.ext_acc;

  for (size_t gi = group_begin; gi < group_end; ++gi) {
    const BlockedCountPlan::Group& group = plan.groups[gi];
    const size_t p = group.prefix.size();
    CORRMINE_CHECK(p >= 1 && p <= prefix_cols.size())
        << "prefix size " << p << " out of kernel range";
    for (size_t i = 0; i < p; ++i) {
      prefix_cols[i] = index.item_bitmap(group.prefix.item(i)).words().data();
    }
    const size_t num_ext = group.ext_items.size();
    ext_cols.resize(num_ext);
    for (size_t j = 0; j < num_ext; ++j) {
      ext_cols[j] = index.item_bitmap(group.ext_items[j]).words().data();
    }
    ext_acc.assign(num_ext, 0);
    uint64_t self_acc = 0;
    const bool has_self = !group.self_queries.empty();

    for (size_t w0 = 0; w0 < words; w0 += kKernelTileWords) {
      const size_t wn = std::min(kKernelTileWords, words - w0);
      const uint64_t* block;
      if (p == 1) {
        block = prefix_cols[0] + w0;
      } else {
        for (size_t i = 0; i < p; ++i) tile_ops[i] = prefix_cols[i] + w0;
        kernels.and_block(tile.data(), tile_ops.data(), p, wn);
        block = tile.data();
        if (stats != nullptr) {
          stats->block_and_words += (p - 1) * static_cast<uint64_t>(wn);
        }
      }
      if (has_self) {
        self_acc += kernels.popcount(block, wn);
        if (stats != nullptr) stats->popcount_words += wn;
      }
      for (size_t j = 0; j < num_ext; ++j) {
        ext_acc[j] += kernels.and_count(block, ext_cols[j] + w0, wn);
      }
      if (stats != nullptr) {
        stats->and_words += num_ext * static_cast<uint64_t>(wn);
      }
    }

    for (uint32_t q : group.self_queries) counts[q] = self_acc;
    for (size_t j = 0; j < num_ext; ++j) {
      counts[group.ext_queries[j]] = ext_acc[j];
    }
    if (stats != nullptr) {
      ++stats->groups;
      stats->queries += num_ext + group.self_queries.size();
    }
  }
}

void BumpKernelCounters(const BlockedExecStats& stats) {
  struct Handles {
    Counter* groups;
    Counter* queries;
    Counter* and_words;
    Counter* block_and_words;
    Counter* popcount_words;
  };
  static const Handles handles = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return Handles{registry.GetCounter("kernel.blocked_groups"),
                   registry.GetCounter("kernel.blocked_queries"),
                   registry.GetCounter("kernel.and_words"),
                   registry.GetCounter("kernel.block_and_words"),
                   registry.GetCounter("kernel.popcount_words")};
  }();
  handles.groups->Add(stats.groups);
  handles.queries->Add(stats.queries);
  handles.and_words->Add(stats.and_words);
  handles.block_and_words->Add(stats.block_and_words);
  handles.popcount_words->Add(stats.popcount_words);
}

void BumpColumnKernelCounters(const ColumnOpStats& stats) {
  struct Handles {
    Counter* groups;
    Counter* queries;
    Counter* dense_words;
    Counter* array_elems;
    Counter* probe_elems;
    Counter* run_elems;
  };
  static const Handles handles = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return Handles{registry.GetCounter("kernel.column_groups"),
                   registry.GetCounter("kernel.column_queries"),
                   registry.GetCounter("kernel.column_dense_words"),
                   registry.GetCounter("kernel.column_array_elems"),
                   registry.GetCounter("kernel.column_probe_elems"),
                   registry.GetCounter("kernel.column_run_elems")};
  }();
  handles.groups->Add(stats.groups);
  handles.queries->Add(stats.queries);
  handles.dense_words->Add(stats.dense_words);
  handles.array_elems->Add(stats.array_elems);
  handles.probe_elems->Add(stats.probe_elems);
  handles.run_elems->Add(stats.run_elems);
}

}  // namespace corrmine
