#include "itemset/bitmap.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "itemset/kernels.h"

namespace corrmine {

uint64_t Bitmap::Count() const {
  return ActiveKernels().popcount(words_.data(), words_.size());
}

uint64_t Bitmap::AndCount(const Bitmap& other) const {
  CORRMINE_CHECK(num_bits_ == other.num_bits_)
      << "AndCount on differently-sized bitmaps";
  return ActiveKernels().and_count(words_.data(), other.words_.data(),
                                   words_.size());
}

void Bitmap::AndWith(const Bitmap& other) {
  CORRMINE_CHECK(num_bits_ == other.num_bits_)
      << "AndWith on differently-sized bitmaps";
  ActiveKernels().and_inplace(words_.data(), other.words_.data(),
                              words_.size());
}

uint64_t Bitmap::AndCountInto(const Bitmap& a, const Bitmap& b, Bitmap* dst) {
  CORRMINE_CHECK(a.num_bits_ == b.num_bits_)
      << "AndCountInto on differently-sized bitmaps";
  if (dst->num_bits_ != a.num_bits_) *dst = Bitmap(a.num_bits_);
  return ActiveKernels().and_count_into(dst->words_.data(), a.words_.data(),
                                        b.words_.data(), a.words_.size());
}

uint64_t MultiAndCount(const std::vector<const Bitmap*>& bitmaps) {
  if (bitmaps.empty()) return 0;
  const size_t num_words = bitmaps[0]->words().size();
  std::vector<const uint64_t*> operands;
  operands.reserve(bitmaps.size());
  for (const Bitmap* b : bitmaps) {
    CORRMINE_CHECK(b->words().size() == num_words)
        << "MultiAndCount on differently-sized bitmaps";
    operands.push_back(b->words().data());
  }
  return MultiAndCount(std::move(operands), num_words);
}

uint64_t MultiAndCount(std::vector<const uint64_t*> operands,
                       size_t num_words) {
  if (operands.empty()) return 0;
  const CountingKernels& kernels = ActiveKernels();
  if (operands.size() == 1) return kernels.popcount(operands[0], num_words);
  // Lead with the sparsest operand: the kernels stop ANDing a word/chunk
  // once its accumulator is all-zero, and a sparse leader zeroes chunks
  // soonest. The ordering pass is one popcount per operand — cheap next to
  // the (k-1)-way AND stream it prunes — and a stable sort keeps the
  // operand order (hence the execution trace) deterministic on ties.
  std::vector<std::pair<uint64_t, const uint64_t*>> by_density;
  by_density.reserve(operands.size());
  for (const uint64_t* words : operands) {
    by_density.emplace_back(kernels.popcount(words, num_words), words);
  }
  std::stable_sort(by_density.begin(), by_density.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < by_density.size(); ++i) {
    operands[i] = by_density[i].second;
  }
  return kernels.multi_and_count(operands.data(), operands.size(), num_words);
}

}  // namespace corrmine
