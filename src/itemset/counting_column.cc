#include "itemset/counting_column.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace corrmine {

namespace {

/// Group-block granularity of CountColumnBatch: one task covers up to this
/// many plan groups.
constexpr size_t kColumnGroupBlock = 64;

/// Number of (start, length-1) runs in a sorted offset sequence.
size_t CountRuns(std::span<const uint16_t> offsets) {
  size_t runs = 0;
  for (size_t i = 0; i < offsets.size(); ++i) {
    runs += (i == 0 || offsets[i] != static_cast<uint16_t>(offsets[i - 1] + 1) ||
             offsets[i] == 0);
  }
  return runs;
}

/// Popcount of words[...] restricted to bit positions [first, last].
uint64_t CountDenseRange(const uint64_t* words, uint32_t first,
                         uint32_t last) {
  const uint32_t first_word = first >> 6;
  const uint32_t last_word = last >> 6;
  const uint64_t head_mask = ~uint64_t{0} << (first & 63);
  const uint64_t tail_mask = ~uint64_t{0} >> (63 - (last & 63));
  if (first_word == last_word) {
    return static_cast<uint64_t>(
        std::popcount(words[first_word] & head_mask & tail_mask));
  }
  uint64_t count = std::popcount(words[first_word] & head_mask);
  for (uint32_t w = first_word + 1; w < last_word; ++w) {
    count += std::popcount(words[w]);
  }
  count += std::popcount(words[last_word] & tail_mask);
  return count;
}

/// Words spanned by bit range [first, last] (ISA-invariant work unit).
uint64_t DenseRangeWords(uint32_t first, uint32_t last) {
  return (last >> 6) - (first >> 6) + 1;
}

}  // namespace

CountingColumn::Container CountingColumn::MakeContainer(
    uint32_t key, std::span<const uint16_t> offsets) {
  Container c;
  c.key = key;
  c.count = static_cast<uint32_t>(offsets.size());
  const size_t runs = CountRuns(offsets);
  const size_t array_bytes = 2 * offsets.size();
  const size_t run_bytes = 4 * runs;
  const size_t dense_bytes = kWordsPerDense * sizeof(uint64_t);
  if (run_bytes < array_bytes && run_bytes < dense_bytes) {
    c.kind = ContainerKind::kRun;
    c.owned_u16.reserve(2 * runs);
    size_t i = 0;
    while (i < offsets.size()) {
      size_t j = i + 1;
      while (j < offsets.size() &&
             offsets[j] == static_cast<uint16_t>(offsets[j - 1] + 1) &&
             offsets[j] != 0) {
        ++j;
      }
      c.owned_u16.push_back(offsets[i]);
      c.owned_u16.push_back(static_cast<uint16_t>(j - i - 1));
      i = j;
    }
  } else if (array_bytes <= dense_bytes) {
    c.kind = ContainerKind::kArray;
    c.owned_u16.assign(offsets.begin(), offsets.end());
  } else {
    c.kind = ContainerKind::kDense;
    c.owned_words.assign(kWordsPerDense, 0);
    for (uint16_t off : offsets) {
      c.owned_words[off >> 6] |= uint64_t{1} << (off & 63);
    }
  }
  return c;
}

void CountingColumn::ContainerOffsets(const Container& c,
                                      std::vector<uint16_t>* out) {
  out->clear();
  out->reserve(c.count);
  switch (c.kind) {
    case ContainerKind::kArray: {
      const auto u16 = c.u16();
      out->assign(u16.begin(), u16.end());
      break;
    }
    case ContainerKind::kDense: {
      const uint64_t* words = c.words();
      for (size_t w = 0; w < kWordsPerDense; ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
          const int b = std::countr_zero(bits);
          out->push_back(static_cast<uint16_t>(w * 64 + b));
          bits &= bits - 1;
        }
      }
      break;
    }
    case ContainerKind::kRun: {
      const auto runs = c.u16();
      for (size_t r = 0; r + 1 < runs.size(); r += 2) {
        const uint32_t start = runs[r];
        const uint32_t end = start + runs[r + 1];
        for (uint32_t off = start; off <= end; ++off) {
          out->push_back(static_cast<uint16_t>(off));
        }
      }
      break;
    }
  }
}

CountingColumn::CountingColumn(size_t num_rows,
                               const std::vector<uint32_t>& rows) {
  std::vector<uint16_t> offsets(rows.size());
  std::vector<uint32_t> block_ends;
  for (size_t i = 0; i < rows.size(); ++i) {
    CORRMINE_CHECK(rows[i] < num_rows)
        << "row " << rows[i] << " out of range " << num_rows;
    CORRMINE_CHECK(i == 0 || rows[i] > rows[i - 1])
        << "rows must be strictly increasing";
    while (block_ends.size() < (rows[i] >> kBlockBits)) {
      block_ends.push_back(static_cast<uint32_t>(i));
    }
    offsets[i] = static_cast<uint16_t>(rows[i] & (kBlockSize - 1));
  }
  *this = FromBlockOffsets(num_rows, offsets, block_ends);
}

CountingColumn CountingColumn::FromBlockOffsets(
    size_t num_rows, std::span<const uint16_t> offsets,
    std::span<const uint32_t> block_ends) {
  CountingColumn col;
  col.num_rows_ = num_rows;
  col.total_count_ = offsets.size();
  size_t begin = 0;
  for (size_t b = 0; b <= block_ends.size(); ++b) {
    const size_t end = b < block_ends.size() ? block_ends[b] : offsets.size();
    CORRMINE_CHECK(begin <= end && end <= offsets.size())
        << "block ends must be non-decreasing and within the offsets";
    if (end == begin) continue;
    CORRMINE_CHECK((b << kBlockBits) + offsets[end - 1] < num_rows)
        << "block " << b << " reaches past row " << num_rows;
    col.containers_.push_back(MakeContainer(
        static_cast<uint32_t>(b), offsets.subspan(begin, end - begin)));
    begin = end;
  }
  return col;
}

CountingColumn CountingColumn::FromBitmap(const Bitmap& bitmap) {
  std::vector<uint32_t> rows;
  const std::vector<uint64_t>& words = bitmap.words();
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      rows.push_back(static_cast<uint32_t>(w * 64 + b));
      bits &= bits - 1;
    }
  }
  return CountingColumn(bitmap.size(), rows);
}

CountingColumn CountingColumn::FromContainerViews(
    size_t num_rows, std::span<const ContainerView> views) {
  CountingColumn col;
  col.num_rows_ = num_rows;
  col.containers_.reserve(views.size());
  for (const ContainerView& v : views) {
    Container c;
    c.key = v.key;
    c.kind = v.kind;
    c.count = v.count;
    if (v.kind == ContainerKind::kDense) {
      CORRMINE_CHECK(v.words.size() == kWordsPerDense)
          << "dense container payload must be " << kWordsPerDense << " words";
      c.view_words = v.words.data();
    } else {
      c.view_u16 = v.u16.data();
      c.view_u16_len = v.u16.size();
    }
    col.total_count_ += v.count;
    col.containers_.push_back(std::move(c));
  }
  return col;
}

bool CountingColumn::Test(uint32_t row) const {
  const uint32_t key = row >> kBlockBits;
  const auto it = std::lower_bound(
      containers_.begin(), containers_.end(), key,
      [](const Container& c, uint32_t k) { return c.key < k; });
  if (it == containers_.end() || it->key != key) return false;
  const uint16_t off = static_cast<uint16_t>(row & (kBlockSize - 1));
  switch (it->kind) {
    case ContainerKind::kArray: {
      const auto u16 = it->u16();
      return std::binary_search(u16.begin(), u16.end(), off);
    }
    case ContainerKind::kDense:
      return (it->words()[off >> 6] >> (off & 63)) & 1;
    case ContainerKind::kRun: {
      const auto runs = it->u16();
      // Last run whose start <= off.
      size_t lo = 0;
      size_t hi = runs.size() / 2;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (runs[2 * mid] <= off) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) return false;
      const uint32_t start = runs[2 * (lo - 1)];
      return off <= start + runs[2 * (lo - 1) + 1];
    }
  }
  return false;
}

uint64_t CountingColumn::AndCountContainers(const Container& a,
                                            const Container& b,
                                            ColumnOpStats* stats) {
  // Canonicalize so the pair dispatch below sees kind(x) <= kind(y) in the
  // order array < dense < run.
  const Container* x = &a;
  const Container* y = &b;
  if (static_cast<int>(x->kind) > static_cast<int>(y->kind)) std::swap(x, y);
  const CountingKernels& kernels = ActiveKernels();
  switch (x->kind) {
    case ContainerKind::kArray:
      switch (y->kind) {
        case ContainerKind::kArray: {
          const auto ax = x->u16();
          const auto ay = y->u16();
          if (stats != nullptr) stats->array_elems += ax.size() + ay.size();
          return kernels.array_intersect_count(ax.data(), ax.size(),
                                               ay.data(), ay.size());
        }
        case ContainerKind::kDense: {
          const auto ax = x->u16();
          if (stats != nullptr) stats->probe_elems += ax.size();
          return kernels.array_dense_count(ax.data(), ax.size(), y->words());
        }
        case ContainerKind::kRun: {
          const auto ax = x->u16();
          const auto runs = y->u16();
          if (stats != nullptr) {
            stats->array_elems += ax.size();
            stats->run_elems += runs.size() / 2;
          }
          uint64_t count = 0;
          size_t r = 0;
          for (const uint16_t v : ax) {
            while (r * 2 < runs.size() &&
                   static_cast<uint32_t>(runs[r * 2]) + runs[r * 2 + 1] < v) {
              ++r;
            }
            if (r * 2 < runs.size() && runs[r * 2] <= v) ++count;
          }
          return count;
        }
      }
      break;
    case ContainerKind::kDense:
      switch (y->kind) {
        case ContainerKind::kDense:
          if (stats != nullptr) stats->dense_words += kWordsPerDense;
          return kernels.and_count(x->words(), y->words(), kWordsPerDense);
        case ContainerKind::kRun: {
          const auto runs = y->u16();
          uint64_t count = 0;
          for (size_t r = 0; r + 1 < runs.size(); r += 2) {
            const uint32_t start = runs[r];
            const uint32_t end = start + runs[r + 1];
            count += CountDenseRange(x->words(), start, end);
            if (stats != nullptr) {
              stats->dense_words += DenseRangeWords(start, end);
            }
          }
          if (stats != nullptr) stats->run_elems += runs.size() / 2;
          return count;
        }
        default:
          break;
      }
      break;
    case ContainerKind::kRun: {
      // run x run: two-pointer overlap-length sum.
      const auto ra = x->u16();
      const auto rb = y->u16();
      if (stats != nullptr) stats->run_elems += ra.size() / 2 + rb.size() / 2;
      uint64_t count = 0;
      size_t i = 0;
      size_t j = 0;
      while (i * 2 < ra.size() && j * 2 < rb.size()) {
        const uint32_t sa = ra[2 * i];
        const uint32_t ea = sa + ra[2 * i + 1];
        const uint32_t sb = rb[2 * j];
        const uint32_t eb = sb + rb[2 * j + 1];
        const uint32_t lo = std::max(sa, sb);
        const uint32_t hi = std::min(ea, eb);
        if (lo <= hi) count += hi - lo + 1;
        if (ea < eb) {
          ++i;
        } else {
          ++j;
        }
      }
      return count;
    }
  }
  CORRMINE_CHECK(false) << "unreachable container pair";
  return 0;
}

CountingColumn::Container CountingColumn::AndContainers(const Container& a,
                                                        const Container& b,
                                                        ColumnOpStats* stats) {
  const Container* x = &a;
  const Container* y = &b;
  if (static_cast<int>(x->kind) > static_cast<int>(y->kind)) std::swap(x, y);
  const CountingKernels& kernels = ActiveKernels();
  std::vector<uint16_t> offsets;
  // dense x dense and dense x run materialize words; everything else
  // materializes sorted offsets and re-optimizes via MakeContainer.
  if (x->kind == ContainerKind::kDense && y->kind == ContainerKind::kDense) {
    Container out;
    out.key = a.key;
    out.kind = ContainerKind::kDense;
    out.owned_words.resize(kWordsPerDense);
    out.count = static_cast<uint32_t>(kernels.and_count_into(
        out.owned_words.data(), x->words(), y->words(), kWordsPerDense));
    if (stats != nullptr) stats->dense_words += kWordsPerDense;
    if (out.count == 0) return out;
    if (out.count >= kDenseThreshold) {
      out.kind = ContainerKind::kDense;
      return out;
    }
    ContainerOffsets(out, &offsets);  // demote: decode then re-pick
    return MakeContainer(a.key, offsets);
  }
  if (x->kind == ContainerKind::kDense && y->kind == ContainerKind::kRun) {
    Container out;
    out.key = a.key;
    out.kind = ContainerKind::kDense;
    out.owned_words.assign(kWordsPerDense, 0);
    const auto runs = y->u16();
    uint64_t count = 0;
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      const uint32_t start = runs[r];
      const uint32_t end = start + runs[r + 1];
      const uint32_t first_word = start >> 6;
      const uint32_t last_word = end >> 6;
      const uint64_t head_mask = ~uint64_t{0} << (start & 63);
      const uint64_t tail_mask = ~uint64_t{0} >> (63 - (end & 63));
      for (uint32_t w = first_word; w <= last_word; ++w) {
        uint64_t mask = ~uint64_t{0};
        if (w == first_word) mask &= head_mask;
        if (w == last_word) mask &= tail_mask;
        const uint64_t bits = x->words()[w] & mask;
        out.owned_words[w] |= bits;
        count += std::popcount(bits);
      }
      if (stats != nullptr) stats->dense_words += DenseRangeWords(start, end);
    }
    if (stats != nullptr) stats->run_elems += runs.size() / 2;
    out.count = static_cast<uint32_t>(count);
    if (out.count == 0) return out;
    if (out.count >= kDenseThreshold) {
      out.kind = ContainerKind::kDense;
      return out;
    }
    ContainerOffsets(out, &offsets);
    return MakeContainer(a.key, offsets);
  }
  if (x->kind == ContainerKind::kRun && y->kind == ContainerKind::kRun) {
    // Intersection of two run lists is a run list: emit overlap segments.
    Container out;
    out.key = a.key;
    out.kind = ContainerKind::kRun;
    const auto ra = x->u16();
    const auto rb = y->u16();
    if (stats != nullptr) stats->run_elems += ra.size() / 2 + rb.size() / 2;
    uint64_t count = 0;
    size_t i = 0;
    size_t j = 0;
    while (i * 2 < ra.size() && j * 2 < rb.size()) {
      const uint32_t sa = ra[2 * i];
      const uint32_t ea = sa + ra[2 * i + 1];
      const uint32_t sb = rb[2 * j];
      const uint32_t eb = sb + rb[2 * j + 1];
      const uint32_t lo = std::max(sa, sb);
      const uint32_t hi = std::min(ea, eb);
      if (lo <= hi) {
        out.owned_u16.push_back(static_cast<uint16_t>(lo));
        out.owned_u16.push_back(static_cast<uint16_t>(hi - lo));
        count += hi - lo + 1;
      }
      if (ea < eb) {
        ++i;
      } else {
        ++j;
      }
    }
    out.count = static_cast<uint32_t>(count);
    return out;
  }
  // Array x {array, dense, run}: the result is at most the array's size
  // (< kDenseThreshold), so materialize offsets directly.
  CORRMINE_CHECK(x->kind == ContainerKind::kArray);
  const auto ax = x->u16();
  if (y->kind == ContainerKind::kArray) {
    const auto ay = y->u16();
    if (stats != nullptr) stats->array_elems += ax.size() + ay.size();
    offsets.reserve(std::min(ax.size(), ay.size()));
    size_t i = 0;
    size_t j = 0;
    while (i < ax.size() && j < ay.size()) {
      if (ax[i] == ay[j]) {
        offsets.push_back(ax[i]);
        ++i;
        ++j;
      } else if (ax[i] < ay[j]) {
        ++i;
      } else {
        ++j;
      }
    }
  } else if (y->kind == ContainerKind::kDense) {
    if (stats != nullptr) stats->probe_elems += ax.size();
    const uint64_t* words = y->words();
    for (const uint16_t off : ax) {
      if ((words[off >> 6] >> (off & 63)) & 1) offsets.push_back(off);
    }
  } else {  // array x run
    const auto runs = y->u16();
    if (stats != nullptr) {
      stats->array_elems += ax.size();
      stats->run_elems += runs.size() / 2;
    }
    size_t r = 0;
    for (const uint16_t v : ax) {
      while (r * 2 < runs.size() &&
             static_cast<uint32_t>(runs[r * 2]) + runs[r * 2 + 1] < v) {
        ++r;
      }
      if (r * 2 < runs.size() && runs[r * 2] <= v) offsets.push_back(v);
    }
  }
  return MakeContainer(a.key, offsets);
}

uint64_t CountingColumn::AndCount(const CountingColumn& other,
                                  ColumnOpStats* stats) const {
  CORRMINE_CHECK(num_rows_ == other.num_rows_)
      << "AndCount over mismatched row spaces: " << num_rows_
      << " != " << other.num_rows_;
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    const uint32_t ka = containers_[i].key;
    const uint32_t kb = other.containers_[j].key;
    if (ka == kb) {
      count += AndCountContainers(containers_[i], other.containers_[j], stats);
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

CountingColumn CountingColumn::And(const CountingColumn& other,
                                   ColumnOpStats* stats) const {
  CORRMINE_CHECK(num_rows_ == other.num_rows_)
      << "And over mismatched row spaces: " << num_rows_
      << " != " << other.num_rows_;
  CountingColumn out;
  out.num_rows_ = num_rows_;
  size_t i = 0;
  size_t j = 0;
  while (i < containers_.size() && j < other.containers_.size()) {
    const uint32_t ka = containers_[i].key;
    const uint32_t kb = other.containers_[j].key;
    if (ka == kb) {
      Container c = AndContainers(containers_[i], other.containers_[j], stats);
      if (c.count > 0) {
        out.total_count_ += c.count;
        out.containers_.push_back(std::move(c));
      }
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

uint64_t CountingColumn::AndCountInto(const CountingColumn& a,
                                      const CountingColumn& b,
                                      CountingColumn* dst,
                                      ColumnOpStats* stats) {
  *dst = a.And(b, stats);
  return dst->Count();
}

size_t CountingColumn::MemoryBytes() const {
  size_t bytes = sizeof(*this) + containers_.capacity() * sizeof(Container);
  for (const Container& c : containers_) {
    bytes += c.owned_u16.capacity() * sizeof(uint16_t) +
             c.owned_words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

std::vector<uint32_t> CountingColumn::ToRows() const {
  std::vector<uint32_t> rows;
  rows.reserve(total_count_);
  std::vector<uint16_t> offsets;
  for (const Container& c : containers_) {
    const uint32_t base = c.key << kBlockBits;
    ContainerOffsets(c, &offsets);
    for (const uint16_t off : offsets) {
      rows.push_back(base | off);
    }
  }
  return rows;
}

CountingColumn::ContainerView CountingColumn::container_view(size_t i) const {
  const Container& c = containers_[i];
  ContainerView view;
  view.key = c.key;
  view.kind = c.kind;
  view.count = c.count;
  if (c.kind == ContainerKind::kDense) {
    view.words = std::span<const uint64_t>(c.words(), kWordsPerDense);
  } else {
    view.u16 = c.u16();
  }
  return view;
}

void CountingColumn::DensePrefix::Reset(const CountingColumn& prefix) {
  prefix_ = &prefix;
  words_.assign(prefix.containers_.size(), nullptr);
  size_t sparse = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    const Container& c = prefix.containers_[i];
    if (c.kind == ContainerKind::kDense) {
      words_[i] = c.words();
    } else {
      ++sparse;
    }
  }
  // Room for every sparse container's bitset up front, so the pointers
  // Words hands out stay valid; each is zeroed when it is expanded.
  if (scratch_.size() < sparse * kWordsPerDense) {
    scratch_.resize(sparse * kWordsPerDense);
  }
  expanded_ = 0;
}

const uint64_t* CountingColumn::DensePrefix::Words(size_t i) {
  if (words_[i] != nullptr) return words_[i];
  uint64_t* words = scratch_.data() + expanded_++ * kWordsPerDense;
  std::fill(words, words + kWordsPerDense, uint64_t{0});
  const Container& c = prefix_->containers_[i];
  const auto u16 = c.u16();
  if (c.kind == ContainerKind::kArray) {
    for (const uint16_t off : u16) {
      words[off >> 6] |= uint64_t{1} << (off & 63);
    }
  } else {
    for (size_t r = 0; r + 1 < u16.size(); r += 2) {
      const uint32_t end = uint32_t{u16[r]} + u16[r + 1];
      for (uint32_t off = u16[r]; off <= end; ++off) {
        words[off >> 6] |= uint64_t{1} << (off & 63);
      }
    }
  }
  words_[i] = words;
  return words;
}

uint64_t CountingColumn::DensePrefix::AndCount(const CountingColumn& other,
                                               ColumnOpStats* stats) {
  const CountingColumn& prefix = *prefix_;
  CORRMINE_CHECK(prefix.num_rows_ == other.num_rows_)
      << "AndCount over mismatched row spaces: " << prefix.num_rows_
      << " != " << other.num_rows_;
  const CountingKernels& kernels = ActiveKernels();
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < prefix.containers_.size() && j < other.containers_.size()) {
    const Container& p = prefix.containers_[i];
    const Container& e = other.containers_[j];
    if (p.key < e.key) {
      ++i;
    } else if (e.key < p.key) {
      ++j;
    } else {
      // An array container probes a sparse prefix container's bitset
      // where array_intersect_count would merge linearly, and merges where
      // one side is kGallopRatio times the other and the merge gallops.
      // Dense prefix containers take AndCount's probe as they are.
      const bool linear = e.count < kGallopRatio * p.count &&
                          p.count < kGallopRatio * e.count;
      if (e.kind == ContainerKind::kArray &&
          p.kind != ContainerKind::kDense && linear) {
        const auto u16 = e.u16();
        if (stats != nullptr) stats->probe_elems += u16.size();
        count += kernels.array_dense_count(u16.data(), u16.size(), Words(i));
      } else {
        count += AndCountContainers(p, e, stats);
      }
      ++i;
      ++j;
    }
  }
  return count;
}

namespace {

void AppendVarintU16(std::string* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

// A u16 payload value needs at most three 7-bit groups; a fourth byte is
// an overflowing or overlong encoding.
Status ReadVarintU16(const uint8_t* data, size_t len, size_t* pos,
                     uint32_t* value) {
  uint32_t v = 0;
  for (int shift = 0; shift < 21; shift += 7) {
    if (*pos >= len) {
      return Status::Corruption("CCS2: truncated varint payload");
    }
    const uint8_t byte = data[(*pos)++];
    v |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = v;
      return Status::OK();
    }
  }
  return Status::Corruption("CCS2: varint payload longer than 3 bytes");
}

}  // namespace

void EncodeU16DeltaVarint(CountingColumn::ContainerKind kind,
                          std::span<const uint16_t> payload,
                          std::string* out) {
  if (kind == CountingColumn::ContainerKind::kRun) {
    // (start, length-1) pairs with strictly increasing starts: delta-code
    // the starts, keep the lengths verbatim (they are already small).
    uint32_t prev_start = 0;
    for (size_t i = 0; i + 1 < payload.size(); i += 2) {
      const uint32_t start = payload[i];
      AppendVarintU16(out, i == 0 ? start : start - prev_start);
      AppendVarintU16(out, payload[i + 1]);
      prev_start = start;
    }
    return;
  }
  // Sorted array offsets: first value, then strictly positive deltas.
  uint32_t prev = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    const uint32_t v = payload[i];
    AppendVarintU16(out, i == 0 ? v : v - prev);
    prev = v;
  }
}

Status DecodeU16DeltaVarint(CountingColumn::ContainerKind kind,
                            const uint8_t* data, size_t len, size_t count,
                            std::vector<uint16_t>* out) {
  out->clear();
  size_t pos = 0;
  if (kind == CountingColumn::ContainerKind::kRun) {
    // The directory stores set rows, not the run count: decode pairs
    // until the payload is exhausted, then check the lengths add up.
    uint64_t decoded_rows = 0;
    uint32_t prev_start = 0;
    bool first = true;
    while (pos < len) {
      uint32_t delta = 0;
      uint32_t length_minus_1 = 0;
      Status st = ReadVarintU16(data, len, &pos, &delta);
      if (!st.ok()) return st;
      st = ReadVarintU16(data, len, &pos, &length_minus_1);
      if (!st.ok()) return st;
      const uint32_t start = first ? delta : prev_start + delta;
      if ((!first && delta == 0) || start > 0xffff ||
          start + length_minus_1 > 0xffff) {
        return Status::Corruption("CCS2: run payload out of range");
      }
      out->push_back(static_cast<uint16_t>(start));
      out->push_back(static_cast<uint16_t>(length_minus_1));
      decoded_rows += uint64_t{length_minus_1} + 1;
      prev_start = start;
      first = false;
    }
    if (decoded_rows != count) {
      return Status::Corruption("CCS2: run lengths do not sum to count");
    }
  } else {
    out->reserve(count);
    uint32_t prev = 0;
    bool first = true;
    while (out->size() < count) {
      uint32_t delta = 0;
      const Status st = ReadVarintU16(data, len, &pos, &delta);
      if (!st.ok()) return st;
      const uint32_t v = first ? delta : prev + delta;
      if ((!first && delta == 0) || v > 0xffff) {
        return Status::Corruption("CCS2: array payload not increasing u16");
      }
      out->push_back(static_cast<uint16_t>(v));
      prev = v;
      first = false;
    }
    if (pos != len) {
      return Status::Corruption("CCS2: trailing bytes after varint payload");
    }
  }
  return Status::OK();
}

uint64_t CountAllPresentColumns(const ColumnSource& source, const Itemset& s,
                                ColumnOpStats* stats) {
  CORRMINE_CHECK(!s.empty()) << "CountAllPresent requires a non-empty set";
  if (s.size() == 1) return source.column(s.item(0)).Count();
  // Fold rarest-first so the intermediate intersections stay small. The
  // order changes cost only — intersection counts are exact either way —
  // and is itself deterministic (count, then item id).
  std::vector<ItemId> items(s.items().begin(), s.items().end());
  std::sort(items.begin(), items.end(), [&](ItemId a, ItemId b) {
    const uint64_t ca = source.column(a).Count();
    const uint64_t cb = source.column(b).Count();
    if (ca != cb) return ca < cb;
    return a < b;
  });
  if (items.size() == 2) {
    return source.column(items[0]).AndCount(source.column(items[1]), stats);
  }
  CountingColumn acc =
      source.column(items[0]).And(source.column(items[1]), stats);
  for (size_t i = 2; i + 1 < items.size(); ++i) {
    acc = acc.And(source.column(items[i]), stats);
  }
  return acc.AndCount(source.column(items.back()), stats);
}

void ExecuteBlockedGroupsColumns(const BlockedCountPlan& plan,
                                 size_t group_begin, size_t group_end,
                                 const ColumnSource& source,
                                 std::span<uint64_t> counts,
                                 ColumnOpStats* stats) {
  CORRMINE_CHECK(counts.size() == plan.num_queries)
      << "counts span does not match the plan";
  CountingColumn::DensePrefix dense;
  for (size_t g = group_begin; g < group_end; ++g) {
    const BlockedCountPlan::Group& group = plan.groups[g];
    if (stats != nullptr) {
      ++stats->groups;
      stats->queries += group.self_queries.size() + group.ext_queries.size();
    }
    // Size-1 prefixes alias the item column; larger prefixes fold into a
    // materialized intersection once per group.
    const CountingColumn* block = &source.column(group.prefix.item(0));
    CountingColumn materialized;
    for (size_t i = 1; i < group.prefix.size(); ++i) {
      materialized = block->And(source.column(group.prefix.item(i)), stats);
      block = &materialized;
    }
    const uint64_t self_count = block->Count();
    for (const uint32_t slot : group.self_queries) {
      counts[slot] = self_count;
    }
    // Every extension shares the prefix: each prefix container is expanded
    // into a bitset at most once, for the first extension that probes it.
    dense.Reset(*block);
    for (size_t i = 0; i < group.ext_items.size(); ++i) {
      counts[group.ext_queries[i]] =
          dense.AndCount(source.column(group.ext_items[i]), stats);
    }
  }
}

void CountColumnBatch(const BlockedCountPlan& plan, const ColumnSource& source,
                      std::span<uint64_t> counts, ThreadPool* pool) {
  const size_t blocks =
      (plan.groups.size() + kColumnGroupBlock - 1) / kColumnGroupBlock;
  Status status = ParallelFor(
      pool, blocks, 1, [&](size_t begin, size_t end) -> Status {
        for (size_t block = begin; block < end; ++block) {
          const size_t g_begin = block * kColumnGroupBlock;
          const size_t g_end =
              std::min(g_begin + kColumnGroupBlock, plan.groups.size());
          TraceScope block_span("column.count_block", -1, -1,
                                static_cast<int64_t>(g_end - g_begin));
          ColumnOpStats stats;
          ExecuteBlockedGroupsColumns(plan, g_begin, g_end, source, counts,
                                      &stats);
          BumpColumnKernelCounters(stats);
        }
        return Status::OK();
      });
  // A block that ran out of memory fails like any allocation in this call.
  if (status.IsResourceExhausted()) throw std::bad_alloc();
  CORRMINE_CHECK(status.ok()) << status.ToString();
}

CompressedVerticalIndex::CompressedVerticalIndex(const TransactionDatabase& db)
    : num_baskets_(db.num_baskets()) {
  std::vector<std::vector<uint32_t>> rows(db.num_items());
  for (ItemId item = 0; item < db.num_items(); ++item) {
    rows[item].reserve(db.ItemCount(item));
  }
  for (size_t b = 0; b < db.num_baskets(); ++b) {
    for (const ItemId item : db.basket(b)) {
      rows[item].push_back(static_cast<uint32_t>(b));
    }
  }
  columns_.reserve(rows.size());
  for (const std::vector<uint32_t>& item_rows : rows) {
    columns_.emplace_back(num_baskets_, item_rows);
  }
  empty_ = CountingColumn(num_baskets_, {});
}

uint64_t CompressedVerticalIndex::CountAllPresent(const Itemset& s) const {
  return CountAllPresentColumns(*this, s);
}

size_t CompressedVerticalIndex::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const CountingColumn& col : columns_) {
    bytes += col.MemoryBytes();
  }
  return bytes;
}

const CountingColumn& CompressedVerticalIndex::column(ItemId item) const {
  if (static_cast<size_t>(item) < columns_.size()) return columns_[item];
  return empty_;
}

}  // namespace corrmine
