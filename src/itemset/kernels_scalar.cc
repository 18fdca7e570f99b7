// Portable counting kernels: std::popcount word loops, no ISA flags. This
// is both the universal fallback and the baseline the dispatched kernels
// are benchmarked (and differential-tested) against, so it deliberately
// stays the straightforward one-word-at-a-time formulation.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "itemset/kernels.h"

namespace corrmine {

namespace {

#include "itemset/kernels_sparse_inl.h"

uint64_t ScalarPopcount(const uint64_t* words, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

uint64_t ScalarAndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

/// popcount(a AND bs[j]) for M extensions, one word of `a` at a time.
template <size_t M>
void ScalarAndCountBlock(const uint64_t* a, const uint64_t* const* bs,
                         size_t n, uint64_t* counts) {
  uint64_t totals[M] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = a[i];
#pragma GCC unroll 4
    for (size_t j = 0; j < M; ++j) totals[j] += std::popcount(w & bs[j][i]);
  }
  for (size_t j = 0; j < M; ++j) counts[j] = totals[j];
}

void ScalarAndCountMany(const uint64_t* a, const uint64_t* const* bs,
                        size_t m, size_t n, uint64_t* counts) {
  for (; m >= 4; m -= 4, bs += 4, counts += 4) {
    ScalarAndCountBlock<4>(a, bs, n, counts);
  }
  if (m == 3) ScalarAndCountBlock<3>(a, bs, n, counts);
  if (m == 2) ScalarAndCountBlock<2>(a, bs, n, counts);
  if (m == 1) ScalarAndCountBlock<1>(a, bs, n, counts);
}

uint64_t ScalarMultiAndCount(const uint64_t* const* ops, size_t k,
                             size_t n) {
  uint64_t total = 0;
  for (size_t w = 0; w < n; ++w) {
    uint64_t acc = ops[0][w];
    for (size_t i = 1; i < k && acc != 0; ++i) acc &= ops[i][w];
    total += std::popcount(acc);
  }
  return total;
}

void ScalarAndInplace(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

uint64_t ScalarAndCountInto(uint64_t* dst, const uint64_t* a,
                            const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = a[i] & b[i];
    dst[i] = w;
    total += std::popcount(w);
  }
  return total;
}

void ScalarAndBlock(uint64_t* dst, const uint64_t* const* ops, size_t k,
                    size_t n) {
  for (size_t w = 0; w < n; ++w) {
    uint64_t acc = ops[0][w] & ops[1][w];
    for (size_t i = 2; i < k; ++i) acc &= ops[i][w];
    dst[w] = acc;
  }
}

constexpr CountingKernels kScalarKernels = {
    KernelIsa::kScalar, "scalar",           ScalarPopcount,
    ScalarAndCount,     ScalarAndCountMany, ScalarMultiAndCount,
    ScalarAndInplace,   ScalarAndCountInto, ScalarAndBlock,
    SparseArrayIntersectCount, SparseArrayDenseCount,
};

}  // namespace

const CountingKernels* ScalarKernels() { return &kScalarKernels; }

}  // namespace corrmine
