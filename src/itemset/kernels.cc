#include "itemset/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <new>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
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

}  // namespace

const CountingKernels& ActiveKernels() {
  const CountingKernels* active = g_active.load(std::memory_order_acquire);
  if (active != nullptr) return *active;
  // First use with no kernel forced: CPU dispatch. A concurrent
  // SetActiveKernel that got there first keeps its choice.
  g_active.compare_exchange_strong(active, BestKernels(),
                                   std::memory_order_acq_rel);
  return *g_active.load(std::memory_order_acquire);
}

const char* ActiveKernelName() { return ActiveKernels().name; }

std::string RequestedKernelName() {
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
  // Which columns the batch references, for the stripe width below.
  std::vector<uint8_t> referenced;
  size_t columns = 0;
  const auto reference = [&](ItemId item) {
    if (item >= referenced.size()) referenced.resize(size_t{item} + 1, 0);
    columns += referenced[item] == 0;
    referenced[item] = 1;
  };
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
      for (ItemId item : prefix) reference(item);
    }
    Group& group = plan.groups.back();
    if (self) {
      group.self_queries.push_back(static_cast<uint32_t>(qi));
    } else {
      group.ext_items.push_back(s.item(prefix_len));
      group.ext_queries.push_back(static_cast<uint32_t>(qi));
      reference(s.item(prefix_len));
    }
  }
  plan.item_bound = static_cast<ItemId>(referenced.size());
  // The stripe rule: one stripe of every referenced column plus the
  // partial counts fit in kStripeCacheBytes. Partials past three quarters
  // of the budget no longer fit anyway; the floor takes over there.
  const size_t partial_bytes =
      std::min(plan.num_queries * sizeof(uint64_t), kStripeCacheBytes / 4 * 3);
  const size_t fit = columns == 0 ? kMaxStripeWords
                                  : (kStripeCacheBytes - partial_bytes) /
                                        (columns * sizeof(uint64_t));
  plan.stripe_words =
      std::clamp(fit / 8 * 8, kMinStripeWords, kMaxStripeWords);
  return plan;
}

void ExecuteStripes(const BlockedCountPlan& plan, const VerticalIndex& index,
                    size_t stripe_begin, size_t stripe_end,
                    size_t group_begin, size_t group_end,
                    std::span<uint64_t> partial, BlockedExecStats* stats) {
  CORRMINE_CHECK(partial.size() == plan.num_queries)
      << "blocked plan answers " << plan.num_queries << " queries into "
      << partial.size() << " slots";
  CORRMINE_CHECK(plan.item_bound <= index.num_items())
      << "item id out of range";
  const CountingKernels& kernels = ActiveKernels();
  const size_t words = index.words_per_bitmap();
  const size_t stripe = plan.stripe_words;
  std::vector<const uint64_t*> columns(plan.item_bound);
  for (ItemId item = 0; item < plan.item_bound; ++item) {
    columns[item] = index.item_bitmap(item).words().data();
  }
  alignas(64) uint64_t tile[kMaxStripeWords];
  std::array<const uint64_t*, 32> prefix_ops;
  std::array<const uint64_t*, kAndCountManyWidth> ext_ops;
  std::array<uint64_t, kAndCountManyWidth> ext_counts;
  BlockedExecStats done;

  for (size_t s = stripe_begin; s < stripe_end; ++s) {
    const size_t w0 = s * stripe;
    CORRMINE_CHECK(w0 < words) << "stripe " << s << " past " << words
                               << " words";
    const size_t wn = std::min(stripe, words - w0);
    for (size_t g = group_begin; g < group_end; ++g) {
      const BlockedCountPlan::Group& group = plan.groups[g];
      const size_t p = group.prefix.size();
      const uint64_t* block;
      if (p == 1) {
        block = columns[group.prefix.item(0)] + w0;
      } else {
        CORRMINE_CHECK(p <= prefix_ops.size())
            << "prefix size " << p << " out of kernel range";
        for (size_t i = 0; i < p; ++i) {
          prefix_ops[i] = columns[group.prefix.item(i)] + w0;
        }
        kernels.and_block(tile, prefix_ops.data(), p, wn);
        block = tile;
        done.block_and_words += (p - 1) * wn;
      }
      if (!group.self_queries.empty()) {
        const uint64_t count = kernels.popcount(block, wn);
        for (uint32_t q : group.self_queries) partial[q] += count;
        done.popcount_words += wn;
      }
      const size_t num_ext = group.ext_items.size();
      for (size_t j = 0; j < num_ext; j += kAndCountManyWidth) {
        const size_t m = std::min(kAndCountManyWidth, num_ext - j);
        for (size_t i = 0; i < m; ++i) {
          ext_ops[i] = columns[group.ext_items[j + i]] + w0;
        }
        kernels.and_count_many(block, ext_ops.data(), m, wn,
                               ext_counts.data());
        for (size_t i = 0; i < m; ++i) {
          partial[group.ext_queries[j + i]] += ext_counts[i];
        }
      }
      done.and_words += num_ext * wn;
    }
  }
  if (stats != nullptr) {
    stats->and_words += done.and_words;
    stats->block_and_words += done.block_and_words;
    stats->popcount_words += done.popcount_words;
  }
}

namespace {

/// Adds one execution's accounting to the global "kernel.*" counters.
/// Thread-safe.
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

/// A batch with fewer stripe tasks than this many per pool participant
/// also splits its group axis, so small databases still feed the pool.
constexpr size_t kTasksPerParticipant = 4;

/// Cuts plan.groups into `parts` contiguous ranges of about equal work
/// (one unit per extension, plus one for the prefix block): returns the
/// parts + 1 boundaries.
std::vector<size_t> BalancedGroupCuts(const BlockedCountPlan& plan,
                                      size_t parts) {
  std::vector<uint64_t> prefix_work(plan.groups.size() + 1, 0);
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    prefix_work[g + 1] =
        prefix_work[g] + plan.groups[g].ext_items.size() + 1;
  }
  std::vector<size_t> cuts(parts + 1, plan.groups.size());
  cuts[0] = 0;
  for (size_t r = 1; r < parts; ++r) {
    const uint64_t target = prefix_work.back() * r / parts;
    cuts[r] = static_cast<size_t>(
        std::lower_bound(prefix_work.begin(), prefix_work.end(), target) -
        prefix_work.begin());
  }
  return cuts;
}

}  // namespace

void CountBlockedBatch(const BlockedCountPlan& plan,
                       std::span<const VerticalIndex* const> shards,
                       std::span<uint64_t> counts, ThreadPool* pool,
                       std::span<uint64_t> shard_ns) {
  CORRMINE_CHECK(counts.size() == plan.num_queries)
      << "blocked plan answers " << plan.num_queries << " queries into "
      << counts.size() << " slots";
  CORRMINE_CHECK(shard_ns.empty() || shard_ns.size() == shards.size())
      << "one time slot per shard";
  // Stripe tasks, shard-major: shard k owns [first_stripe[k],
  // first_stripe[k + 1]).
  std::vector<size_t> first_stripe(shards.size() + 1, 0);
  for (size_t k = 0; k < shards.size(); ++k) {
    const size_t words = shards[k]->words_per_bitmap();
    first_stripe[k + 1] = first_stripe[k] +
                          (words + plan.stripe_words - 1) / plan.stripe_words;
  }
  const size_t stripes = first_stripe.back();
  // Inline (no pool) there is nothing to feed, so the group axis stays
  // whole.
  size_t parts = 1;
  if (pool != nullptr && stripes > 0) {
    const size_t wanted =
        kTasksPerParticipant * (static_cast<size_t>(pool->num_threads()) + 1);
    if (stripes < wanted) {
      parts = std::min(std::max<size_t>(plan.groups.size(), 1),
                       (wanted + stripes - 1) / stripes);
    }
  }
  const std::vector<size_t> cuts = BalancedGroupCuts(plan, parts);
  const size_t tasks = stripes * parts;

  // Slot 0 sums straight into `counts`; the others into their own arrays,
  // allocated by the first task a slot runs (a late helper may run none).
  const size_t num_slots = ParallelForSlotBound(pool, tasks, 1);
  std::fill(counts.begin(), counts.end(), uint64_t{0});
  std::vector<std::vector<uint64_t>> partials(num_slots - 1);
  std::vector<std::atomic<uint64_t>> ns(shard_ns.size());
  Status status = ParallelForSlots(
      pool, tasks, 1, [&](size_t slot, size_t begin, size_t end) -> Status {
        if (slot > 0 && partials[slot - 1].empty()) {
          partials[slot - 1].assign(plan.num_queries, 0);
        }
        std::span<uint64_t> partial =
            slot == 0 ? counts : std::span<uint64_t>(partials[slot - 1]);
        BlockedExecStats stats;
        for (size_t task = begin; task < end; ++task) {
          const size_t s = task / parts;
          const size_t part = task % parts;
          const size_t k = static_cast<size_t>(
              std::upper_bound(first_stripe.begin(), first_stripe.end(), s) -
              first_stripe.begin() - 1);
          const size_t local = s - first_stripe[k];
          TraceScope span("bitmap.count_stripe", -1, static_cast<int64_t>(k),
                          static_cast<int64_t>(local));
          const uint64_t t0 = ns.empty() ? 0 : SteadyNowNanos();
          ExecuteStripes(plan, *shards[k], local, local + 1, cuts[part],
                         cuts[part + 1], partial, &stats);
          if (!ns.empty()) {
            ns[k].fetch_add(SteadyNowNanos() - t0, std::memory_order_relaxed);
          }
        }
        BumpKernelCounters(stats);
        return Status::OK();
      });
  // A task that ran out of memory fails like any allocation in this call.
  if (status.IsResourceExhausted()) throw std::bad_alloc();
  CORRMINE_CHECK(status.ok()) << status.ToString();
  for (const std::vector<uint64_t>& p : partials) {
    for (size_t q = 0; q < p.size(); ++q) counts[q] += p[q];
  }
  for (size_t k = 0; k < ns.size(); ++k) {
    shard_ns[k] = ns[k].load(std::memory_order_relaxed);
  }
  // Every shard answers every group once, however the words were split.
  BlockedExecStats per_shard;
  per_shard.groups = plan.groups.size() * shards.size();
  per_shard.queries = plan.num_queries * shards.size();
  BumpKernelCounters(per_shard);
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
