// Sparse-container kernels shared by every ISA translation unit.
//
// Included *inside* each kernels_<isa>.cc anonymous namespace, so each copy
// is compiled under that TU's ISA flags and the compiler is free to
// auto-vectorize the probe loop with whatever the TU targets. The logic is
// identical in every TU — like all counting kernels these change cost,
// never answers.
//
// Not a public header: no include guard on purpose; including it twice in
// one TU is a bug.

/// |a ∩ b| of two sorted uint16 arrays. Linear merge while the sides are
/// comparable in length; gallops (doubling probe + binary search) once the
/// longer side is >= kGallopRatio x the shorter remainder, the regime sparse
/// basket columns actually hit (a rare item against a common one).
inline uint64_t SparseArrayIntersectCount(const uint16_t* a, size_t na,
                                          const uint16_t* b, size_t nb) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const size_t rem_a = na - i;
    const size_t rem_b = nb - j;
    if (rem_b >= kGallopRatio * rem_a || rem_a >= kGallopRatio * rem_b) {
      // Gallop the shorter remainder through the longer one.
      const uint16_t* hay = (rem_b > rem_a) ? b : a;
      size_t hay_pos = (rem_b > rem_a) ? j : i;
      const size_t hay_end = (rem_b > rem_a) ? nb : na;
      const uint16_t needle = (rem_b > rem_a) ? a[i] : b[j];
      size_t step = 1;
      size_t lo = hay_pos;
      while (lo + step < hay_end && hay[lo + step] < needle) {
        lo += step;
        step <<= 1;
      }
      size_t hi = (lo + step < hay_end) ? lo + step : hay_end;
      while (lo < hi) {  // first element >= needle in [lo, hi)
        const size_t mid = lo + (hi - lo) / 2;
        if (hay[mid] < needle) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (rem_b > rem_a) {
        j = lo;
        if (j < nb && b[j] == needle) {
          ++count;
          ++i;
          ++j;
        } else if (j < nb) {
          ++i;
        }
      } else {
        i = lo;
        if (i < na && a[i] == needle) {
          ++count;
          ++i;
          ++j;
        } else if (i < na) {
          ++j;
        }
      }
      continue;
    }
    const uint16_t va = a[i];
    const uint16_t vb = b[j];
    count += (va == vb);
    i += (va <= vb);
    j += (vb <= va);
  }
  return count;
}

/// Members of sorted array `a` set in the 1024-word dense block `words`.
inline uint64_t SparseArrayDenseCount(const uint16_t* a, size_t na,
                                      const uint64_t* words) {
  uint64_t count = 0;
  for (size_t i = 0; i < na; ++i) {
    const uint16_t off = a[i];
    count += (words[off >> 6] >> (off & 63)) & 1u;
  }
  return count;
}
