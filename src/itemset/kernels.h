#ifndef CORRMINE_ITEMSET_KERNELS_H_
#define CORRMINE_ITEMSET_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "itemset/itemset.h"

namespace corrmine {

class ThreadPool;
class VerticalIndex;

/// SIMD-dispatched counting kernels (DESIGN.md §9).
///
/// Every chi-squared verdict bottoms out in AND+popcount chains over
/// vertical bitmaps, so the word loops behind Bitmap / CountingColumn /
/// the count providers are routed through one table of function pointers,
/// selected once per process: the best ISA the CPU supports (AVX-512 with
/// VPOPCNTDQ > AVX2 > NEON > portable std::popcount), overridable with
/// SetActiveKernel (the CLI --kernel flag).
///
/// Contract: every kernel computes the exact same integers — a kernel
/// changes cost, never answers — so the deterministic stats section and all
/// mined output are byte-identical across kernels (enforced by
/// kernel_differential_test and the verify.sh scalar-vs-dispatch stage).
/// All word buffers are plain std::vector<uint64_t> storage; kernels use
/// unaligned loads and impose no alignment or padding requirements. Operand
/// arrays may alias only where a scalar in-place loop would be well defined
/// (and_inplace allows dst == src; and_count_into allows dst == a or b).

enum class KernelIsa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

/// Extensions and_count_many keeps in registers per pass over the prefix.
inline constexpr size_t kAndCountManyWidth = 4;

/// One ISA's implementations. `name` has static storage duration.
struct CountingKernels {
  KernelIsa isa;
  const char* name;

  /// Popcount of words[0..n).
  uint64_t (*popcount)(const uint64_t* words, size_t n);
  /// Popcount of (a AND b) over n words, nothing materialized.
  uint64_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
  /// counts[j] = popcount(a AND bs[j]) over n words for every j < m
  /// (m >= 1). Register-blocked kAndCountManyWidth extensions at a time:
  /// each word of `a` is loaded once against all of them.
  void (*and_count_many)(const uint64_t* a, const uint64_t* const* bs,
                         size_t m, size_t n, uint64_t* counts);
  /// Popcount of (ops[0] AND ... AND ops[k-1]) over n words; requires
  /// k >= 1. Implementations may skip work once a chunk's accumulator is
  /// all-zero (callers order operands sparsest-first to exploit this).
  uint64_t (*multi_and_count)(const uint64_t* const* ops, size_t k,
                              size_t n);
  /// dst &= src over n words.
  void (*and_inplace)(uint64_t* dst, const uint64_t* src, size_t n);
  /// dst = a AND b over n words; returns popcount(dst) fused in one pass.
  uint64_t (*and_count_into)(uint64_t* dst, const uint64_t* a,
                             const uint64_t* b, size_t n);
  /// dst = ops[0] AND ... AND ops[k-1] over n words; requires k >= 2 and
  /// dst distinct from every operand.
  void (*and_block)(uint64_t* dst, const uint64_t* const* ops, size_t k,
                    size_t n);
  /// |a ∩ b| for two sorted uint16 offset arrays (sparse column
  /// containers): galloping merge — binary-search jumps when one side is
  /// much longer, linear merge otherwise. Either array may be empty.
  uint64_t (*array_intersect_count)(const uint16_t* a, size_t na,
                                    const uint16_t* b, size_t nb);
  /// Members of sorted offset array `a` whose bit is set in the 1024-word
  /// dense container `words` (one 2^16-row block).
  uint64_t (*array_dense_count)(const uint16_t* a, size_t na,
                                const uint64_t* words);
};

/// Per-ISA factories. Each lives in its own translation unit compiled with
/// exactly that ISA's flags (CMake set_source_files_properties — there is
/// no global -march); when the toolchain or target can't build the ISA the
/// factory returns nullptr. A non-null result only proves the code was
/// compiled; whether this CPU can run it is the dispatcher's check.
const CountingKernels* ScalarKernels();
const CountingKernels* Avx2Kernels();
const CountingKernels* Avx512Kernels();
const CountingKernels* NeonKernels();

/// The process-wide active kernel table: the one SetActiveKernel forced,
/// else CPU dispatch, resolved on first use. Afterwards this is one atomic
/// load, cheap enough for every Bitmap call site.
const CountingKernels& ActiveKernels();

/// Name of the active kernel ("scalar", "avx2", "avx512", "neon").
const char* ActiveKernelName();

/// What was asked for: "auto" unless a specific kernel was forced via
/// SetActiveKernel. Reported in the stats JSON's non-deterministic
/// "kernel" section.
std::string RequestedKernelName();

/// Forces a kernel by name; "" or "auto" restores CPU dispatch. Errors on
/// names that are unknown, not compiled in, or unsupported by this CPU
/// (listing what is available). Not safe to call concurrently with
/// counting — set it up front (the CLI does so before opening a session).
Status SetActiveKernel(std::string_view name);

/// Kernels this process can actually run (compiled in and CPU-supported),
/// scalar first then ascending ISA capability. Never empty.
std::vector<const CountingKernels*> AvailableKernels();

/// Comma-joined names of AvailableKernels(), for errors and --help.
std::string AvailableKernelNames();

/// The stripe-major executor's working-set budget: one word stripe of every
/// column a batch references plus the batch's partial counts (8 bytes per
/// query) should fit in this much of a core's L2, so each stripe is loaded
/// from memory once and every prefix group of the batch reuses it. 1.5 MiB
/// is three quarters of a current Xeon core's 2 MiB L2; the rest holds the
/// materialized prefix block and the code's own working set. Stripes half
/// this wide paid more per-call overhead than they saved.
inline constexpr size_t kStripeCacheBytes = size_t{3} << 19;
/// Stripe width bounds, in 64-bit words. The floor keeps the per-group
/// call overhead small against the words it streams when a batch
/// references many columns; the ceiling bounds the materialized prefix
/// block (kept on the stack) and leaves several stripes per shard for the
/// pool on batches that reference few columns.
inline constexpr size_t kMinStripeWords = 64;
inline constexpr size_t kMaxStripeWords = 1024;

/// The prefix-blocked execution plan for one level batch. The level-wise
/// miner's candidates arrive as runs sharing a (k-1)-prefix (sibling
/// candidates differ in their last item only), so instead of re-walking
/// full bitmaps per query the executor groups queries by that prefix,
/// materializes the prefix intersection once per word stripe, and counts
/// every extension item's stripe against it — Eclat's prefix-tidset
/// intersection. The stripe-major executor (CountBlockedBatch) also shares
/// the extension columns: each stripe is loaded once for all groups.
struct BlockedCountPlan {
  struct Group {
    /// Shared prefix — the AND operands (size >= 1). A size-1 prefix
    /// aliases the item column directly; nothing is copied.
    Itemset prefix;
    /// Query slots answered by popcount(prefix) itself (adjacent duplicate
    /// queries each keep their own slot; one popcount serves them all).
    std::vector<uint32_t> self_queries;
    /// Last items of the size-(|prefix|+1) queries in this group, and the
    /// answer slot of each.
    std::vector<ItemId> ext_items;
    std::vector<uint32_t> ext_queries;
  };

  std::vector<Group> groups;
  size_t num_queries = 0;
  /// One past the largest item id any query names.
  ItemId item_bound = 0;
  /// Words per stripe of the stripe-major executor, fixed by the batch
  /// shape alone: (kStripeCacheBytes - 8 * num_queries) / (8 * distinct
  /// referenced columns), the partials capped at three quarters of the
  /// budget, rounded down to a whole 8-word cache line and clamped to
  /// [kMinStripeWords, kMaxStripeWords].
  size_t stripe_words = kMinStripeWords;

  /// Groups `queries` by their (size-1)-prefix: consecutive queries with
  /// the same prefix form one group, so a prefix-sorted stream (what every
  /// library caller sends: the miner, Apriori, the out-of-core sweeps,
  /// memo misses) yields one group per prefix run. Any other order still counts
  /// exactly, in more and smaller groups. Queries must be non-empty
  /// itemsets; duplicates are allowed and each slot still gets its answer.
  static BlockedCountPlan Build(std::span<const Itemset> queries);
};

/// Work accounting for the stripe-major executor, in *logical* 64-bit
/// words — identical for every kernel ISA, stripe width, task split and
/// thread count, so the "kernel." counters these feed diff clean across
/// scalar vs dispatched runs and across --threads.
struct BlockedExecStats {
  uint64_t groups = 0;
  uint64_t queries = 0;
  /// Words AND+popcounted against extension columns.
  uint64_t and_words = 0;
  /// Words ANDed while materializing prefix blocks ((p-1) per word).
  uint64_t block_and_words = 0;
  /// Words popcounted for self (prefix == query) answers.
  uint64_t popcount_words = 0;
};

/// One task of the stripe-major executor: word stripes [stripe_begin,
/// stripe_end) of `index` (stripe s covers words [s * plan.stripe_words,
/// min((s + 1) * plan.stripe_words, words))) against plan.groups
/// [group_begin, group_end). For each stripe it runs every group of the
/// range: the prefix block is the item column itself (size-1 prefix) or
/// and_block'ed onto the stack, and the group's extensions are counted
/// four at a time with and_count_many. ADDS each answered query's count
/// over those words into `partial` (size plan.num_queries), so any
/// stripe × group partition sums to the exact counts. `stats` (optional)
/// accumulates the words done; groups/queries are left to the caller.
void ExecuteStripes(const BlockedCountPlan& plan, const VerticalIndex& index,
                    size_t stripe_begin, size_t stripe_end,
                    size_t group_begin, size_t group_end,
                    std::span<uint64_t> partial, BlockedExecStats* stats);

/// Counts every query of `plan` over the sum of `shards`' bitmaps into
/// `counts` (size plan.num_queries) — the one batch routine behind
/// BitmapCountProvider (one shard) and ShardedCountProvider (K). Tasks are
/// (shard, stripe) pairs; only when a batch has fewer stripes than the pool
/// can use is the group axis split further into extension-balanced ranges.
/// Each scheduler slot sums into its own partial array, and the partials
/// are added in slot order: exact integers, identical for any pool and any
/// split. Adds the work to the "kernel.blocked_groups / blocked_queries /
/// and_words / block_and_words / popcount_words" counters. `shard_ns`
/// (optional, one entry per shard) receives each shard's summed task wall
/// time.
void CountBlockedBatch(const BlockedCountPlan& plan,
                       std::span<const VerticalIndex* const> shards,
                       std::span<uint64_t> counts, ThreadPool* pool,
                       std::span<uint64_t> shard_ns = {});

/// Work accounting for hybrid-column intersections (CountingColumn), in
/// *logical* data units computed at the call sites from container shapes
/// only — never from what a kernel's inner loop happened to touch — so the
/// "kernel.column_*" counters these feed are identical for every ISA.
struct ColumnOpStats {
  /// Groups / queries answered by the column executor.
  uint64_t groups = 0;
  uint64_t queries = 0;
  /// 64-bit words ANDed in dense x dense container pairs.
  uint64_t dense_words = 0;
  /// Sorted-array elements fed to galloping array x array intersections.
  uint64_t array_elems = 0;
  /// Array elements probed against dense containers.
  uint64_t probe_elems = 0;
  /// Run-list entries walked (run x run / run x array / run x dense).
  uint64_t run_elems = 0;

  void Add(const ColumnOpStats& other) {
    groups += other.groups;
    queries += other.queries;
    dense_words += other.dense_words;
    array_elems += other.array_elems;
    probe_elems += other.probe_elems;
    run_elems += other.run_elems;
  }
};

/// Adds one execution's accounting to the global "kernel.column_groups /
/// column_queries / column_dense_words / column_array_elems /
/// column_probe_elems / column_run_elems" counters. Thread-safe.
void BumpColumnKernelCounters(const ColumnOpStats& stats);

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_KERNELS_H_
