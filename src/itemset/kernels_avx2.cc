// AVX2 counting kernels: 256-bit AND streams with the Muła SHUFB-LUT
// popcount (per-byte nibble lookup, summed through PSADBW into four 64-bit
// lanes). Compiled with -mavx2 -mpopcnt via per-file CMake flags — never
// globally — and only ever *called* after the dispatcher's runtime
// __builtin_cpu_supports checks, so the rest of the binary stays baseline.
//
// Loads are unaligned (std::vector<uint64_t> storage guarantees nothing
// beyond alignof(uint64_t)); tails shorter than one vector fall back to the
// scalar word loop, which -mpopcnt turns into hardware POPCNT here.

#include <cstddef>
#include <cstdint>

#include "itemset/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

namespace corrmine {

namespace {

#include "itemset/kernels_sparse_inl.h"

constexpr size_t kLaneWords = 4;  // 256 bits.

/// Per-64-bit-lane popcount of v (Muła): nibble LUT via PSHUFB, then
/// PSADBW against zero folds the 32 byte counts into 4 u64 sums.
inline __m256i Popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline uint64_t HorizontalSum(__m256i acc) {
  return static_cast<uint64_t>(_mm256_extract_epi64(acc, 0)) +
         static_cast<uint64_t>(_mm256_extract_epi64(acc, 1)) +
         static_cast<uint64_t>(_mm256_extract_epi64(acc, 2)) +
         static_cast<uint64_t>(_mm256_extract_epi64(acc, 3));
}

uint64_t Avx2Popcount(const uint64_t* words, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

uint64_t Avx2AndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

/// popcount(a AND bs[j]) for M extensions in one pass over `a`: each
/// 4-word chunk of the prefix is loaded once and kept in a register while
/// all M extension chunks are ANDed against it. The j loops are unrolled
/// so the M accumulators and stripe pointers live in registers.
template <size_t M>
void Avx2AndCountBlock(const uint64_t* a, const uint64_t* const* bs,
                       size_t n, uint64_t* counts) {
  __m256i acc[M];
  const uint64_t* b[M];
#pragma GCC unroll 4
  for (size_t j = 0; j < M; ++j) {
    acc[j] = _mm256_setzero_si256();
    b[j] = bs[j];
  }
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
#pragma GCC unroll 4
    for (size_t j = 0; j < M; ++j) {
      const __m256i w = _mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b[j] + i)));
      acc[j] = _mm256_add_epi64(acc[j], Popcount256(w));
    }
  }
  for (size_t j = 0; j < M; ++j) {
    uint64_t total = HorizontalSum(acc[j]);
    for (size_t t = i; t < n; ++t) total += std::popcount(a[t] & b[j][t]);
    counts[j] = total;
  }
}

void Avx2AndCountMany(const uint64_t* a, const uint64_t* const* bs, size_t m,
                      size_t n, uint64_t* counts) {
  for (; m >= 4; m -= 4, bs += 4, counts += 4) {
    Avx2AndCountBlock<4>(a, bs, n, counts);
  }
  if (m == 3) Avx2AndCountBlock<3>(a, bs, n, counts);
  if (m == 2) Avx2AndCountBlock<2>(a, bs, n, counts);
  if (m == 1) Avx2AndCountBlock<1>(a, bs, n, counts);
}

uint64_t Avx2MultiAndCount(const uint64_t* const* ops, size_t k, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ops[0] + i));
    for (size_t j = 1; j < k; ++j) {
      if (_mm256_testz_si256(v, v)) break;  // Chunk already empty.
      v = _mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ops[j] + i)));
    }
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    uint64_t w = ops[0][i];
    for (size_t j = 1; j < k && w != 0; ++j) w &= ops[j][i];
    total += std::popcount(w);
  }
  return total;
}

void Avx2AndInplace(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

uint64_t Avx2AndCountInto(uint64_t* dst, const uint64_t* a,
                          const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    const uint64_t w = a[i] & b[i];
    dst[i] = w;
    total += std::popcount(w);
  }
  return total;
}

void Avx2AndBlock(uint64_t* dst, const uint64_t* const* ops, size_t k,
                  size_t n) {
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ops[0] + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ops[1] + i)));
    for (size_t j = 2; j < k; ++j) {
      v = _mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ops[j] + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) {
    uint64_t w = ops[0][i] & ops[1][i];
    for (size_t j = 2; j < k; ++j) w &= ops[j][i];
    dst[i] = w;
  }
}

constexpr CountingKernels kAvx2Kernels = {
    KernelIsa::kAvx2, "avx2",           Avx2Popcount,
    Avx2AndCount,     Avx2AndCountMany, Avx2MultiAndCount,
    Avx2AndInplace,   Avx2AndCountInto, Avx2AndBlock,
    SparseArrayIntersectCount, SparseArrayDenseCount,
};

}  // namespace

const CountingKernels* Avx2Kernels() { return &kAvx2Kernels; }

}  // namespace corrmine

#else  // !defined(__AVX2__)

namespace corrmine {

// TU built without AVX2 flags (non-x86 target, or the toolchain lacks
// -mavx2): the factory reports "not compiled in".
const CountingKernels* Avx2Kernels() { return nullptr; }

}  // namespace corrmine

#endif  // defined(__AVX2__)
