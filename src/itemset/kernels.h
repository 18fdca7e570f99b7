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

class VerticalIndex;

/// SIMD-dispatched counting kernels (DESIGN.md §9).
///
/// Every chi-squared verdict bottoms out in AND+popcount chains over
/// vertical bitmaps, so the word loops behind Bitmap / CountingColumn /
/// the count providers are routed through one table of function pointers,
/// selected once per process: the best ISA the CPU supports (AVX-512 with
/// VPOPCNTDQ > AVX2 > NEON > portable std::popcount), overridable with the
/// CORRMINE_KERNEL environment variable or the CLI --kernel flag.
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

/// One ISA's implementations. `name` has static storage duration.
struct CountingKernels {
  KernelIsa isa;
  const char* name;

  /// Popcount of words[0..n).
  uint64_t (*popcount)(const uint64_t* words, size_t n);
  /// Popcount of (a AND b) over n words, nothing materialized.
  uint64_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
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

/// The process-wide active kernel table. First use resolves
/// CORRMINE_KERNEL (unknown or unsupported values warn on stderr and fall
/// back to auto dispatch); afterwards this is one atomic load, cheap
/// enough for every Bitmap call site.
const CountingKernels& ActiveKernels();

/// Name of the active kernel ("scalar", "avx2", "avx512", "neon").
const char* ActiveKernelName();

/// What was asked for: "auto" unless a specific kernel was forced via
/// SetActiveKernel / CORRMINE_KERNEL. Reported in the stats JSON's
/// non-deterministic "kernel" section.
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

/// Words per tile of the prefix-blocked executor: 1024 words = 8 KiB, so a
/// materialized prefix block plus the extension column stripe it is ANDed
/// against stay L1-resident while the group streams each word range once.
inline constexpr size_t kKernelTileWords = 1024;

/// The prefix-blocked execution plan for one level batch. The level-wise
/// miner's candidates arrive as runs sharing a (k-1)-prefix (sibling
/// candidates differ in their last item only), so instead of re-walking
/// full bitmaps per query the executor groups queries by that prefix,
/// materializes the prefix intersection one tile at a time, and streams
/// every extension item's column against the hot tile — Eclat's
/// prefix-tidset intersection.
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

  /// Groups `queries` by their (size-1)-prefix: consecutive queries with
  /// the same prefix form one group, so a prefix-sorted stream (what every
  /// library caller sends: the miner, Apriori, the out-of-core sweeps,
  /// memo misses) yields one group per prefix run. Any other order still counts
  /// exactly, in more and smaller groups. Queries must be non-empty
  /// itemsets; duplicates are allowed and each slot still gets its answer.
  static BlockedCountPlan Build(std::span<const Itemset> queries);
};

/// Work accounting for one ExecuteBlockedGroups call, in *logical* 64-bit
/// words — identical for every kernel ISA, so the "kernel." counters these
/// feed diff clean across scalar vs dispatched runs.
struct BlockedExecStats {
  uint64_t groups = 0;
  uint64_t queries = 0;
  /// Words AND+popcounted against extension columns.
  uint64_t and_words = 0;
  /// Words ANDed while materializing prefix tiles ((p-1) per word).
  uint64_t block_and_words = 0;
  /// Words popcounted for self (prefix == query) answers.
  uint64_t popcount_words = 0;
};

/// Reusable working memory for ExecuteBlockedGroups: the L1-resident tile a
/// group's extension columns stream against, plus the per-group column and
/// accumulator arrays. Callers running blocked execution as pool morsels
/// keep one of these per scheduler slot (ParallelForSlots) so buffers are
/// sized once and reused across every morsel that slot executes — no
/// thread_local growth on transient pool threads.
struct BlockedExecScratch {
  std::vector<uint64_t> tile;
  std::vector<const uint64_t*> ext_cols;
  std::vector<uint64_t> ext_acc;
};

/// Executes plan.groups[group_begin..group_end) against `index`, writing
/// each answered query's count into `counts` (indexed by query position;
/// counts.size() == plan.num_queries). Tiles through kKernelTileWords-word
/// blocks using `scratch` (pass null to fall back to a thread-local
/// arena). Results are exact integers — identical for any kernel, tiling,
/// or group partition — so callers may parallelize over disjoint group
/// ranges freely. `stats` (optional) accumulates work done.
void ExecuteBlockedGroups(const BlockedCountPlan& plan, size_t group_begin,
                          size_t group_end, const VerticalIndex& index,
                          std::span<uint64_t> counts, BlockedExecStats* stats,
                          BlockedExecScratch* scratch = nullptr);

/// Adds one execution's accounting to the global "kernel.blocked_groups /
/// blocked_queries / and_words / block_and_words / popcount_words"
/// counters. Thread-safe.
void BumpKernelCounters(const BlockedExecStats& stats);

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
