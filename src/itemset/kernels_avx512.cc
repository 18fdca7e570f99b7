// AVX-512 counting kernels: 512-bit AND streams counted with the VPOPCNTDQ
// instruction (_mm512_popcnt_epi64 — one hardware popcount per 64-bit lane,
// no LUT dance). Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq
// -mpopcnt via per-file CMake flags and gated at runtime on
// __builtin_cpu_supports("avx512f"/"avx512bw"/"avx512vpopcntdq").

#include <cstddef>
#include <cstdint>

#include "itemset/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>

namespace corrmine {

namespace {

#include "itemset/kernels_sparse_inl.h"

constexpr size_t kLaneWords = 8;  // 512 bits.

uint64_t Avx512Popcount(const uint64_t* words, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m512i v = _mm512_loadu_si512(words + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

uint64_t Avx512AndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

/// popcount(a AND bs[j]) for M extensions in one pass over `a`: each
/// 8-word chunk of the prefix is loaded once and kept in a register while
/// all M extension chunks are ANDed against it. The j loops are unrolled
/// so the M accumulators and stripe pointers live in registers.
template <size_t M>
void Avx512AndCountBlock(const uint64_t* a, const uint64_t* const* bs,
                         size_t n, uint64_t* counts) {
  __m512i acc[M];
  const uint64_t* b[M];
#pragma GCC unroll 4
  for (size_t j = 0; j < M; ++j) {
    acc[j] = _mm512_setzero_si512();
    b[j] = bs[j];
  }
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m512i v = _mm512_loadu_si512(a + i);
#pragma GCC unroll 4
    for (size_t j = 0; j < M; ++j) {
      const __m512i w = _mm512_and_si512(v, _mm512_loadu_si512(b[j] + i));
      acc[j] = _mm512_add_epi64(acc[j], _mm512_popcnt_epi64(w));
    }
  }
  for (size_t j = 0; j < M; ++j) {
    uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc[j]));
    for (size_t t = i; t < n; ++t) total += std::popcount(a[t] & b[j][t]);
    counts[j] = total;
  }
}

void Avx512AndCountMany(const uint64_t* a, const uint64_t* const* bs,
                        size_t m, size_t n, uint64_t* counts) {
  for (; m >= 4; m -= 4, bs += 4, counts += 4) {
    Avx512AndCountBlock<4>(a, bs, n, counts);
  }
  if (m == 3) Avx512AndCountBlock<3>(a, bs, n, counts);
  if (m == 2) Avx512AndCountBlock<2>(a, bs, n, counts);
  if (m == 1) Avx512AndCountBlock<1>(a, bs, n, counts);
}

uint64_t Avx512MultiAndCount(const uint64_t* const* ops, size_t k,
                             size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    __m512i v = _mm512_loadu_si512(ops[0] + i);
    for (size_t j = 1; j < k; ++j) {
      if (_mm512_test_epi64_mask(v, v) == 0) break;  // Chunk already empty.
      v = _mm512_and_si512(v, _mm512_loadu_si512(ops[j] + i));
    }
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    uint64_t w = ops[0][i];
    for (size_t j = 1; j < k && w != 0; ++j) w &= ops[j][i];
    total += std::popcount(w);
  }
  return total;
}

void Avx512AndInplace(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(dst + i),
                                       _mm512_loadu_si512(src + i));
    _mm512_storeu_si512(dst + i, v);
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

uint64_t Avx512AndCountInto(uint64_t* dst, const uint64_t* a,
                            const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m512i v = _mm512_and_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    _mm512_storeu_si512(dst + i, v);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    const uint64_t w = a[i] & b[i];
    dst[i] = w;
    total += std::popcount(w);
  }
  return total;
}

void Avx512AndBlock(uint64_t* dst, const uint64_t* const* ops, size_t k,
                    size_t n) {
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    __m512i v = _mm512_and_si512(_mm512_loadu_si512(ops[0] + i),
                                 _mm512_loadu_si512(ops[1] + i));
    for (size_t j = 2; j < k; ++j) {
      v = _mm512_and_si512(v, _mm512_loadu_si512(ops[j] + i));
    }
    _mm512_storeu_si512(dst + i, v);
  }
  for (; i < n; ++i) {
    uint64_t w = ops[0][i] & ops[1][i];
    for (size_t j = 2; j < k; ++j) w &= ops[j][i];
    dst[i] = w;
  }
}

constexpr CountingKernels kAvx512Kernels = {
    KernelIsa::kAvx512, "avx512",           Avx512Popcount,
    Avx512AndCount,     Avx512AndCountMany, Avx512MultiAndCount,
    Avx512AndInplace,   Avx512AndCountInto, Avx512AndBlock,
    SparseArrayIntersectCount, SparseArrayDenseCount,
};

}  // namespace

const CountingKernels* Avx512Kernels() { return &kAvx512Kernels; }

}  // namespace corrmine

#else  // missing AVX-512 subset

namespace corrmine {

// TU built without the required AVX-512 feature flags: not compiled in.
const CountingKernels* Avx512Kernels() { return nullptr; }

}  // namespace corrmine

#endif  // AVX-512 subset
