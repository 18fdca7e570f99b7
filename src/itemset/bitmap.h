#ifndef CORRMINE_ITEMSET_BITMAP_H_
#define CORRMINE_ITEMSET_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace corrmine {

/// Fixed-length bitset used as a vertical (per-item) index over baskets:
/// bit b is set iff basket b contains the item. Sized at construction;
/// supports the AND/popcount kernels the mining counters need.
class Bitmap {
 public:
  Bitmap() : num_bits_(0) {}
  explicit Bitmap(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }

  /// Grows to `num_bits` bits, preserving existing bits (new bits are 0).
  /// Shrinking is not supported — delta ingestion only ever appends rows.
  void Resize(size_t num_bits) {
    words_.resize((num_bits + 63) / 64, 0);
    num_bits_ = num_bits;
  }

  void Set(size_t bit) { words_[bit >> 6] |= (uint64_t{1} << (bit & 63)); }
  void Clear(size_t bit) { words_[bit >> 6] &= ~(uint64_t{1} << (bit & 63)); }
  bool Test(size_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }

  /// Number of set bits.
  uint64_t Count() const;

  /// Popcount of (this AND other) without materializing the intersection.
  /// The bitmaps must be the same size.
  uint64_t AndCount(const Bitmap& other) const;

  /// In-place intersection; the bitmaps must be the same size.
  void AndWith(const Bitmap& other);

  /// Fused intersection: *dst = a AND b, returning popcount(*dst) from the
  /// same pass over the words (one load stream instead of AND-then-Count).
  /// `dst` is resized to match; a and b must be the same size.
  static uint64_t AndCountInto(const Bitmap& a, const Bitmap& b, Bitmap* dst);

  /// Raw word access for fused multi-way kernels.
  const std::vector<uint64_t>& words() const { return words_; }

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  size_t num_bits_;
  std::vector<uint64_t> words_;
};

/// Popcount of the AND of several bitmaps in one pass (no temporaries).
/// All bitmaps must be the same size; an empty list yields 0. Operands are
/// processed sparsest-first so the kernels' all-zero early exit fires as
/// soon as possible (AND is commutative, so the count is unchanged).
uint64_t MultiAndCount(const std::vector<const Bitmap*>& bitmaps);

/// MultiAndCount over raw bitmaps of `num_words` words each.
uint64_t MultiAndCount(std::vector<const uint64_t*> operands,
                       size_t num_words);

}  // namespace corrmine

#endif  // CORRMINE_ITEMSET_BITMAP_H_
