// Differential tests for the counting kernels (DESIGN.md §9): every
// compiled-in-and-runnable SIMD variant must return exactly the integers a
// plain reference loop returns, on adversarial word shapes — tail words
// past the last full vector lane, all-zero blocks (the early-exit path),
// single-bit and all-ones words, and empty intersections. The stripe-major
// executor is checked the same way, against naive
// VerticalIndex::CountAllPresent, for every kernel at word counts around
// the stripe width and for every stripe-range x group-range split.

#include "itemset/kernels.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "itemset/bitmap.h"
#include "itemset/itemset.h"
#include "itemset/transaction_database.h"

namespace corrmine {
namespace {

// Hand-written reference loops, deliberately independent of the kernel
// layer (including its scalar TU) so a bug shared by all kernels is still
// caught.
uint64_t RefPopcount(const std::vector<uint64_t>& words) {
  uint64_t total = 0;
  for (uint64_t w : words) {
    while (w != 0) {
      total += w & 1;
      w >>= 1;
    }
  }
  return total;
}

uint64_t RefAndCount(const std::vector<uint64_t>& a,
                     const std::vector<uint64_t>& b) {
  std::vector<uint64_t> anded(a.size());
  for (size_t i = 0; i < a.size(); ++i) anded[i] = a[i] & b[i];
  return RefPopcount(anded);
}

std::vector<uint64_t> RefAndAll(
    const std::vector<const std::vector<uint64_t>*>& ops, size_t n) {
  std::vector<uint64_t> acc(n, ~uint64_t{0});
  if (ops.empty()) return acc;
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = (*ops[0])[i];
    for (size_t k = 1; k < ops.size(); ++k) w &= (*ops[k])[i];
    acc[i] = w;
  }
  return acc;
}

// The adversarial word-count menu: empty, sub-word, one word, every
// remainder class around the 4-word (AVX2) and 8-word (AVX-512) lane
// widths, and two larger buffers with ragged tails.
const size_t kShapes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65};

std::vector<uint64_t> RandomWords(size_t n, std::mt19937_64* rng,
                                  double density) {
  std::bernoulli_distribution bit(density);
  std::vector<uint64_t> words(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 64; ++b) {
      if (bit(*rng)) words[i] |= uint64_t{1} << b;
    }
  }
  return words;
}

// Operand patterns that stress distinct kernel paths.
std::vector<std::vector<uint64_t>> PatternOperands(size_t n,
                                                   std::mt19937_64* rng) {
  std::vector<std::vector<uint64_t>> ops;
  ops.push_back(RandomWords(n, rng, 0.5));           // dense random
  ops.push_back(RandomWords(n, rng, 0.02));          // sparse random
  ops.push_back(std::vector<uint64_t>(n, 0));        // all zero
  ops.push_back(std::vector<uint64_t>(n, ~uint64_t{0}));  // all ones
  std::vector<uint64_t> single(n, 0);
  if (n > 0) single[n - 1] = uint64_t{1} << 63;      // one bit, last word
  ops.push_back(single);
  // Disjoint pair: even bits vs odd bits — empty intersection.
  ops.push_back(std::vector<uint64_t>(n, 0x5555555555555555ULL));
  ops.push_back(std::vector<uint64_t>(n, 0xAAAAAAAAAAAAAAAAULL));
  return ops;
}

class KernelGuard {
 public:
  ~KernelGuard() { EXPECT_TRUE(SetActiveKernel("auto").ok()); }
};

TEST(CountingKernelsTest, ScalarAlwaysAvailable) {
  std::vector<const CountingKernels*> kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front()->isa, KernelIsa::kScalar);
  EXPECT_STREQ(kernels.front()->name, "scalar");
}

TEST(CountingKernelsTest, AllKernelsMatchReferenceOnAdversarialShapes) {
  std::mt19937_64 rng(20260805);
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    for (size_t n : kShapes) {
      SCOPED_TRACE("words=" + std::to_string(n));
      std::vector<std::vector<uint64_t>> ops = PatternOperands(n, &rng);
      for (size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(kernels->popcount(ops[i].data(), n), RefPopcount(ops[i]));
        for (size_t j = 0; j < ops.size(); ++j) {
          const uint64_t want = RefAndCount(ops[i], ops[j]);
          EXPECT_EQ(kernels->and_count(ops[i].data(), ops[j].data(), n),
                    want);
          // Fused and_count_into: result words and count in one pass.
          std::vector<uint64_t> dst(n, 0xDEADBEEFDEADBEEFULL);
          EXPECT_EQ(kernels->and_count_into(dst.data(), ops[i].data(),
                                            ops[j].data(), n),
                    want);
          std::vector<uint64_t> ref =
              RefAndAll({&ops[i], &ops[j]}, n);
          EXPECT_EQ(dst, ref);
          // and_inplace agrees with the materialized intersection.
          std::vector<uint64_t> inplace = ops[i];
          kernels->and_inplace(inplace.data(), ops[j].data(), n);
          EXPECT_EQ(inplace, ref);
        }
      }
    }
  }
}

TEST(CountingKernelsTest, MultiAndAndBlockMatchReference) {
  std::mt19937_64 rng(97);
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    for (size_t n : kShapes) {
      SCOPED_TRACE("words=" + std::to_string(n));
      std::vector<std::vector<uint64_t>> ops = PatternOperands(n, &rng);
      // k from 1 (multi_and) / 2 (and_block) up past the pattern count so
      // repeats appear; operand choice cycles through all patterns,
      // including the disjoint pair that makes the AND collapse to zero.
      for (size_t k = 1; k <= ops.size() + 2; ++k) {
        std::vector<const uint64_t*> ptrs;
        std::vector<const std::vector<uint64_t>*> refs;
        for (size_t i = 0; i < k; ++i) {
          ptrs.push_back(ops[(i * 3 + k) % ops.size()].data());
          refs.push_back(&ops[(i * 3 + k) % ops.size()]);
        }
        const std::vector<uint64_t> ref = RefAndAll(refs, n);
        EXPECT_EQ(kernels->multi_and_count(ptrs.data(), k, n),
                  RefPopcount(ref));
        if (k >= 2) {
          std::vector<uint64_t> dst(n, 0xFEEDFACEFEEDFACEULL);
          kernels->and_block(dst.data(), ptrs.data(), k, n);
          EXPECT_EQ(dst, ref);
        }
      }
    }
  }
}

TEST(CountingKernelsTest, AndCountManyMatchesReference) {
  // and_count_many against the independent reference and the scalar
  // table, for 1..4 extensions (one register block) and past it, on every
  // ragged tail; extension operands cycle through the patterns, so a block
  // mixes dense, sparse, empty and disjoint stripes.
  std::mt19937_64 rng(4242);
  const CountingKernels* scalar = ScalarKernels();
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    for (size_t n : kShapes) {
      SCOPED_TRACE("words=" + std::to_string(n));
      std::vector<std::vector<uint64_t>> ops = PatternOperands(n, &rng);
      for (size_t a = 0; a < ops.size(); ++a) {
        for (size_t m = 1; m <= 2 * kAndCountManyWidth + 1; ++m) {
          std::vector<const uint64_t*> bs;
          std::vector<uint64_t> want;
          for (size_t j = 0; j < m; ++j) {
            const std::vector<uint64_t>& b = ops[(a + 2 * j + 1) % ops.size()];
            bs.push_back(b.data());
            want.push_back(RefAndCount(ops[a], b));
          }
          std::vector<uint64_t> got(m, 0xBADC0FFEEULL);
          kernels->and_count_many(ops[a].data(), bs.data(), m, n, got.data());
          EXPECT_EQ(got, want) << "m=" << m;
          std::vector<uint64_t> ref(m, 0);
          scalar->and_count_many(ops[a].data(), bs.data(), m, n, ref.data());
          EXPECT_EQ(ref, want) << "m=" << m;
        }
      }
    }
  }
}

TEST(CountingKernelsTest, AliasingContracts) {
  std::mt19937_64 rng(7);
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    const size_t n = 65;
    std::vector<uint64_t> a = RandomWords(n, &rng, 0.4);
    std::vector<uint64_t> b = RandomWords(n, &rng, 0.4);
    const std::vector<uint64_t> ref = RefAndAll({&a, &b}, n);
    // and_inplace with dst == src is the identity.
    std::vector<uint64_t> self = a;
    kernels->and_inplace(self.data(), self.data(), n);
    EXPECT_EQ(self, a);
    // and_count_into may write over either input.
    std::vector<uint64_t> dst = a;
    EXPECT_EQ(kernels->and_count_into(dst.data(), dst.data(), b.data(), n),
              RefPopcount(ref));
    EXPECT_EQ(dst, ref);
  }
}

TEST(CountingKernelsTest, BitmapWrappersRouteThroughActiveKernel) {
  // Force each runnable kernel in turn and check the public Bitmap API
  // returns identical answers — this is the path mining actually takes.
  KernelGuard guard;
  std::mt19937_64 rng(1234);
  const size_t bits = 64 * 65 + 17;  // ragged final word
  Bitmap a(bits), b(bits), c(bits);
  std::bernoulli_distribution pa(0.3), pb(0.5), pc(0.05);
  for (size_t i = 0; i < bits; ++i) {
    if (pa(rng)) a.Set(i);
    if (pb(rng)) b.Set(i);
    if (pc(rng)) c.Set(i);
  }
  std::vector<uint64_t> counts;       // [count(a), a&b, a&b&c, into-count]
  std::vector<Bitmap> intersections;  // materialized a&b per kernel
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    ASSERT_TRUE(SetActiveKernel(kernels->name).ok());
    EXPECT_STREQ(ActiveKernelName(), kernels->name);
    Bitmap joined;
    std::vector<uint64_t> got = {
        a.Count(), a.AndCount(b), MultiAndCount({&a, &b, &c}),
        Bitmap::AndCountInto(a, b, &joined)};
    if (counts.empty()) {
      counts = got;
      intersections.push_back(joined);
    } else {
      EXPECT_EQ(got, counts);
      EXPECT_TRUE(joined == intersections.front());
    }
  }
}

// Builds a small synthetic database with deliberately correlated columns so
// multi-item queries have non-trivial counts.
TransactionDatabase MakeDatabase(size_t baskets, ItemId items,
                                 std::mt19937_64* rng) {
  TransactionDatabase db(items);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t row = 0; row < baskets; ++row) {
    std::vector<ItemId> basket;
    for (ItemId i = 0; i < items; ++i) {
      const double p = 0.08 + 0.5 * static_cast<double>(i % 5) / 5.0;
      if (unit(*rng) < p) basket.push_back(i);
    }
    // Item 0 implies item 1 half the time: correlated pair.
    if (!basket.empty() && basket[0] == 0 && unit(*rng) < 0.5) {
      basket.push_back(1);
    }
    EXPECT_TRUE(db.AddBasket(std::move(basket)).ok());
  }
  return db;
}

// Query stream shaped like a level batch: sibling runs sharing a prefix,
// plus singletons, duplicates, and queries whose prefix is itself queried.
std::vector<Itemset> MakeQueries(ItemId items, std::mt19937_64* rng) {
  std::vector<Itemset> queries;
  std::uniform_int_distribution<ItemId> pick(0, items - 1);
  for (ItemId i = 0; i < items; i += 3) queries.push_back(Itemset{i});
  for (int rep = 0; rep < 8; ++rep) {
    // One shared (k-1)-prefix, several extensions.
    std::vector<ItemId> prefix;
    const int k = 2 + rep % 3;
    while (static_cast<int>(prefix.size()) < k - 1) {
      ItemId it = pick(*rng);
      bool dup = false;
      for (ItemId p : prefix) dup |= (p == it);
      if (!dup) prefix.push_back(it);
    }
    queries.push_back(Itemset(prefix));  // prefix itself: self_query path
    for (int e = 0; e < 4; ++e) {
      ItemId ext = pick(*rng);
      bool dup = false;
      for (ItemId p : prefix) dup |= (p == ext);
      if (dup) continue;
      std::vector<ItemId> q = prefix;
      q.push_back(ext);
      queries.push_back(Itemset(q));
    }
  }
  queries.push_back(queries.front());  // duplicate query, distinct slot
  return queries;
}

// Adds up ExecuteStripes over the stripe cuts x group cuts partition of
// (stripes x groups): every cell is one task summing into the result.
std::vector<uint64_t> RunTasks(const BlockedCountPlan& plan,
                               const VerticalIndex& index,
                               const std::vector<size_t>& stripe_cuts,
                               const std::vector<size_t>& group_cuts,
                               BlockedExecStats* stats) {
  std::vector<uint64_t> partial(plan.num_queries, 0);
  for (size_t s = 0; s + 1 < stripe_cuts.size(); ++s) {
    for (size_t g = 0; g + 1 < group_cuts.size(); ++g) {
      ExecuteStripes(plan, index, stripe_cuts[s], stripe_cuts[s + 1],
                     group_cuts[g], group_cuts[g + 1],
                     std::span<uint64_t>(partial), stats);
    }
  }
  return partial;
}

std::vector<size_t> EveryCut(size_t n) {
  std::vector<size_t> cuts;
  for (size_t i = 0; i <= n; ++i) cuts.push_back(i);
  return cuts;
}

TEST(StripeExecutionTest, MatchesNaiveCountsAtStripeBoundaries) {
  KernelGuard guard;
  std::mt19937_64 rng(55);
  const ItemId items = 18;
  std::vector<Itemset> sorted = MakeQueries(items, &rng);
  // Adjacent duplicates: one self group answers both singleton slots, and
  // one extension group answers a repeated extension twice.
  sorted.insert(sorted.begin() + 1, sorted.front());
  sorted.push_back(Itemset{0, 1});
  sorted.push_back(Itemset{0, 1});
  std::vector<Itemset> interleaved = sorted;
  std::shuffle(interleaved.begin(), interleaved.end(), rng);

  for (const std::vector<Itemset>* queries : {&sorted, &interleaved}) {
    SCOPED_TRACE(queries == &sorted ? "sorted" : "interleaved");
    const BlockedCountPlan plan = BlockedCountPlan::Build(*queries);
    const size_t stripe = plan.stripe_words;
    ASSERT_GE(stripe, kMinStripeWords);
    ASSERT_LE(stripe, kMaxStripeWords);
    for (size_t words :
         {size_t{1}, stripe - 1, stripe, stripe + 1, 3 * stripe + 17}) {
      SCOPED_TRACE("words=" + std::to_string(words));
      // A ragged last word: 5 baskets short of the full word count.
      TransactionDatabase db = MakeDatabase(words * 64 - 5, items, &rng);
      VerticalIndex index(db);
      ASSERT_EQ(index.words_per_bitmap(), words);
      std::vector<uint64_t> expected(queries->size());
      for (size_t q = 0; q < queries->size(); ++q) {
        expected[q] = index.CountAllPresent((*queries)[q]);
      }
      const size_t stripes = (words + stripe - 1) / stripe;
      const size_t groups = plan.groups.size();
      for (const CountingKernels* kernels : AvailableKernels()) {
        SCOPED_TRACE(kernels->name);
        ASSERT_TRUE(SetActiveKernel(kernels->name).ok());
        // One task, then one task per (stripe, group) cell.
        EXPECT_EQ(RunTasks(plan, index, {0, stripes}, {0, groups}, nullptr),
                  expected);
        EXPECT_EQ(RunTasks(plan, index, EveryCut(stripes), EveryCut(groups),
                           nullptr),
                  expected);
        // Every two-way stripe cut against every two-way group cut.
        for (size_t sc = 0; sc <= stripes; ++sc) {
          for (size_t gc = 0; gc <= groups; ++gc) {
            ASSERT_EQ(RunTasks(plan, index, {0, sc, stripes},
                               {0, gc, groups}, nullptr),
                      expected)
                << "stripe cut " << sc << ", group cut " << gc;
          }
        }
        // The batch routine, inline and on pools wide enough to split the
        // group axis of a one-stripe batch.
        const VerticalIndex* shard = &index;
        for (int threads : {0, 1, 3}) {
          std::unique_ptr<ThreadPool> pool;
          if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
          std::vector<uint64_t> counts(queries->size(), ~uint64_t{0});
          CountBlockedBatch(plan,
                            std::span<const VerticalIndex* const>(&shard, 1),
                            std::span<uint64_t>(counts), pool.get());
          EXPECT_EQ(counts, expected) << "threads " << threads;
        }
      }
    }
  }
}

TEST(StripeExecutionTest, WorkStatsCountLogicalWords) {
  // The kernel.* accounting is in logical words, so it must be identical
  // across kernels and task splits — that is what lets verify.sh diff the
  // counters between a forced-scalar and a dispatched run, and across
  // thread counts.
  KernelGuard guard;
  std::mt19937_64 rng(99);
  std::vector<Itemset> queries = MakeQueries(12, &rng);
  const BlockedCountPlan plan = BlockedCountPlan::Build(queries);
  TransactionDatabase db =
      MakeDatabase((2 * plan.stripe_words + 3) * 64, 12, &rng);
  VerticalIndex index(db);
  const size_t words = index.words_per_bitmap();
  const size_t stripes = (words + plan.stripe_words - 1) / plan.stripe_words;
  ASSERT_EQ(stripes, 3u);

  uint64_t ext = 0;
  uint64_t block = 0;
  uint64_t self = 0;
  for (const BlockedCountPlan::Group& group : plan.groups) {
    ext += group.ext_items.size() * words;
    block += (group.prefix.size() - 1) * words;
    if (!group.self_queries.empty()) self += words;
  }
  const std::vector<size_t> whole_stripes = {0, stripes};
  const std::vector<size_t> whole_groups = {0, plan.groups.size()};
  for (const CountingKernels* kernels : AvailableKernels()) {
    SCOPED_TRACE(kernels->name);
    ASSERT_TRUE(SetActiveKernel(kernels->name).ok());
    for (bool split : {false, true}) {
      BlockedExecStats stats;
      RunTasks(plan, index, split ? EveryCut(stripes) : whole_stripes,
               split ? EveryCut(plan.groups.size()) : whole_groups, &stats);
      EXPECT_EQ(stats.and_words, ext);
      EXPECT_EQ(stats.block_and_words, block);
      EXPECT_EQ(stats.popcount_words, self);
    }
  }
}

TEST(StripeExecutionTest, StripeWidthFollowsTheCacheRule) {
  // Few columns: the ceiling. Many columns: one stripe of each plus the
  // partial counts fits the budget, in whole cache lines.
  const std::vector<Itemset> one = {Itemset{0, 1}};
  EXPECT_EQ(BlockedCountPlan::Build(one).stripe_words, kMaxStripeWords);
  std::vector<Itemset> pairs;
  for (ItemId a = 0; a < 400; ++a) {
    for (ItemId b = a + 1; b < 400; b += 7) pairs.push_back(Itemset{a, b});
  }
  const BlockedCountPlan plan = BlockedCountPlan::Build(pairs);
  EXPECT_EQ(plan.item_bound, 400u);
  const size_t fit = (kStripeCacheBytes - pairs.size() * sizeof(uint64_t)) /
                     (400 * sizeof(uint64_t));
  EXPECT_EQ(plan.stripe_words,
            std::clamp(fit / 8 * 8, kMinStripeWords, kMaxStripeWords));
  EXPECT_EQ(plan.stripe_words % 8, 0u);
}

TEST(BlockedCountPlanTest, GroupsSiblingsAndDeduplicatesWork) {
  // A prefix-sorted stream, the shape every library caller sends: the
  // adjacent duplicate singletons {0} share one self group (one popcount
  // answers both slots) that the pair {0,1} extends, and the siblings
  // {0,1,2}, {0,1,3}, {0,1,4} form one group on their prefix {0,1}.
  std::vector<Itemset> sorted = {Itemset{0},       Itemset{0},
                                 Itemset{0, 1},    Itemset{0, 1, 2},
                                 Itemset{0, 1, 3}, Itemset{0, 1, 4},
                                 Itemset{7}};
  BlockedCountPlan plan = BlockedCountPlan::Build(sorted);
  EXPECT_EQ(plan.num_queries, sorted.size());
  ASSERT_EQ(plan.groups.size(), 3u);
  const BlockedCountPlan::Group& head = plan.groups[0];
  EXPECT_EQ(head.prefix, (Itemset{0}));
  EXPECT_EQ(head.self_queries, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(head.ext_items, (std::vector<ItemId>{1}));
  EXPECT_EQ(head.ext_queries, (std::vector<uint32_t>{2}));
  const BlockedCountPlan::Group& siblings = plan.groups[1];
  EXPECT_EQ(siblings.prefix, (Itemset{0, 1}));
  EXPECT_TRUE(siblings.self_queries.empty());
  EXPECT_EQ(siblings.ext_items, (std::vector<ItemId>{2, 3, 4}));
  EXPECT_EQ(siblings.ext_queries, (std::vector<uint32_t>{3, 4, 5}));
  const BlockedCountPlan::Group& single = plan.groups[2];
  EXPECT_EQ(single.prefix, (Itemset{7}));
  EXPECT_EQ(single.self_queries, (std::vector<uint32_t>{6}));
  EXPECT_TRUE(single.ext_items.empty());

  // An interleaved stream only groups what is adjacent — every prefix
  // change opens a new group — and still answers every slot exactly.
  std::vector<Itemset> interleaved = {Itemset{0, 1, 2}, Itemset{0, 1},
                                      Itemset{0, 1, 3}, Itemset{7},
                                      Itemset{0, 1, 4}, Itemset{7}};
  BlockedCountPlan split = BlockedCountPlan::Build(interleaved);
  EXPECT_EQ(split.groups.size(), interleaved.size());
  std::mt19937_64 rng(7);
  TransactionDatabase db = MakeDatabase(300, 8, &rng);
  VerticalIndex index(db);
  std::vector<uint64_t> counts(interleaved.size(), 0);
  ExecuteStripes(split, index, 0, 1, 0, split.groups.size(),
                 std::span<uint64_t>(counts), nullptr);
  for (size_t q = 0; q < interleaved.size(); ++q) {
    EXPECT_EQ(counts[q], index.CountAllPresent(interleaved[q]))
        << interleaved[q].ToString();
  }
}

TEST(KernelSelectionTest, RejectsUnknownAndRestoresAuto) {
  KernelGuard guard;
  Status status = SetActiveKernel("vliw");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown kernel"), std::string::npos);
  // A failed force leaves the previous selection in place.
  EXPECT_TRUE(SetActiveKernel("scalar").ok());
  EXPECT_FALSE(SetActiveKernel("vliw").ok());
  EXPECT_STREQ(ActiveKernelName(), "scalar");
  EXPECT_EQ(RequestedKernelName(), "scalar");
  ASSERT_TRUE(SetActiveKernel("auto").ok());
  EXPECT_EQ(RequestedKernelName(), "auto");
}

}  // namespace
}  // namespace corrmine
