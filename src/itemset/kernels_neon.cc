// NEON counting kernels for AArch64: 128-bit AND streams counted with
// VCNT (per-byte popcount) folded up through pairwise widening adds. NEON
// is architecturally baseline on AArch64, so this TU needs no special
// compile flags there — the guard below simply excludes non-ARM targets,
// where the factory reports "not compiled in".

#include <cstddef>
#include <cstdint>

#include "itemset/kernels.h"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

#include <bit>

namespace corrmine {

namespace {

#include "itemset/kernels_sparse_inl.h"

constexpr size_t kLaneWords = 2;  // 128 bits.

/// Per-64-bit-lane popcount: byte counts (VCNT) widened pairwise
/// u8 -> u16 -> u32 -> u64.
inline uint64x2_t Popcount128(uint64x2_t v) {
  const uint8x16_t bytes = vcntq_u8(vreinterpretq_u8_u64(v));
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes)));
}

inline uint64_t HorizontalSum(uint64x2_t acc) {
  return vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
}

uint64_t NeonPopcount(const uint64_t* words, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    acc = vaddq_u64(acc, Popcount128(vld1q_u64(words + i)));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) total += std::popcount(words[i]);
  return total;
}

uint64_t NeonAndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const uint64x2_t v = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    acc = vaddq_u64(acc, Popcount128(v));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

/// popcount(a AND bs[j]) for M extensions in one pass over `a`: each
/// 2-word chunk of the prefix is loaded once and kept in a register while
/// all M extension chunks are ANDed against it. The j loops are unrolled
/// so the M accumulators and stripe pointers live in registers.
template <size_t M>
void NeonAndCountBlock(const uint64_t* a, const uint64_t* const* bs,
                       size_t n, uint64_t* counts) {
  uint64x2_t acc[M];
  const uint64_t* b[M];
#pragma GCC unroll 4
  for (size_t j = 0; j < M; ++j) {
    acc[j] = vdupq_n_u64(0);
    b[j] = bs[j];
  }
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const uint64x2_t v = vld1q_u64(a + i);
#pragma GCC unroll 4
    for (size_t j = 0; j < M; ++j) {
      const uint64x2_t w = vandq_u64(v, vld1q_u64(b[j] + i));
      acc[j] = vaddq_u64(acc[j], Popcount128(w));
    }
  }
  for (size_t j = 0; j < M; ++j) {
    uint64_t total = HorizontalSum(acc[j]);
    for (size_t t = i; t < n; ++t) total += std::popcount(a[t] & b[j][t]);
    counts[j] = total;
  }
}

void NeonAndCountMany(const uint64_t* a, const uint64_t* const* bs, size_t m,
                      size_t n, uint64_t* counts) {
  for (; m >= 4; m -= 4, bs += 4, counts += 4) {
    NeonAndCountBlock<4>(a, bs, n, counts);
  }
  if (m == 3) NeonAndCountBlock<3>(a, bs, n, counts);
  if (m == 2) NeonAndCountBlock<2>(a, bs, n, counts);
  if (m == 1) NeonAndCountBlock<1>(a, bs, n, counts);
}

uint64_t NeonMultiAndCount(const uint64_t* const* ops, size_t k, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    uint64x2_t v = vld1q_u64(ops[0] + i);
    for (size_t j = 1; j < k; ++j) {
      if ((vgetq_lane_u64(v, 0) | vgetq_lane_u64(v, 1)) == 0) break;
      v = vandq_u64(v, vld1q_u64(ops[j] + i));
    }
    acc = vaddq_u64(acc, Popcount128(v));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    uint64_t w = ops[0][i];
    for (size_t j = 1; j < k && w != 0; ++j) w &= ops[j][i];
    total += std::popcount(w);
  }
  return total;
}

void NeonAndInplace(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

uint64_t NeonAndCountInto(uint64_t* dst, const uint64_t* a,
                          const uint64_t* b, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const uint64x2_t v = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    vst1q_u64(dst + i, v);
    acc = vaddq_u64(acc, Popcount128(v));
  }
  uint64_t total = HorizontalSum(acc);
  for (; i < n; ++i) {
    const uint64_t w = a[i] & b[i];
    dst[i] = w;
    total += std::popcount(w);
  }
  return total;
}

void NeonAndBlock(uint64_t* dst, const uint64_t* const* ops, size_t k,
                  size_t n) {
  size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    uint64x2_t v = vandq_u64(vld1q_u64(ops[0] + i), vld1q_u64(ops[1] + i));
    for (size_t j = 2; j < k; ++j) {
      v = vandq_u64(v, vld1q_u64(ops[j] + i));
    }
    vst1q_u64(dst + i, v);
  }
  for (; i < n; ++i) {
    uint64_t w = ops[0][i] & ops[1][i];
    for (size_t j = 2; j < k; ++j) w &= ops[j][i];
    dst[i] = w;
  }
}

constexpr CountingKernels kNeonKernels = {
    KernelIsa::kNeon, "neon",           NeonPopcount,
    NeonAndCount,     NeonAndCountMany, NeonMultiAndCount,
    NeonAndInplace,   NeonAndCountInto, NeonAndBlock,
    SparseArrayIntersectCount, SparseArrayDenseCount,
};

}  // namespace

const CountingKernels* NeonKernels() { return &kNeonKernels; }

}  // namespace corrmine

#else  // not an ARM target

namespace corrmine {

const CountingKernels* NeonKernels() { return nullptr; }

}  // namespace corrmine

#endif  // ARM
