#ifndef CORRMINE_HASH_UNIVERSAL_HASH_H_
#define CORRMINE_HASH_UNIVERSAL_HASH_H_

#include <cstdint>

namespace corrmine::hash {

/// A function from the classic universal family
///   h_{a,b}(x) = ((a*x + b) mod p) mod m,   p = 2^61 - 1,
/// the collision-probability guarantee perfect hashing builds on. `a` must
/// be nonzero mod p.
class UniversalHashFunction {
 public:
  static constexpr uint64_t kPrime = (uint64_t{1} << 61) - 1;

  UniversalHashFunction() : a_(1), b_(0) {}
  UniversalHashFunction(uint64_t a, uint64_t b)
      : a_(a % kPrime), b_(b % kPrime) {
    if (a_ == 0) a_ = 1;
  }

  /// Hash of `key` into the range [0, range); range must be positive.
  uint64_t operator()(uint64_t key, uint64_t range) const;

  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }

 private:
  uint64_t a_;
  uint64_t b_;
};

/// Deterministic pseudo-random stream used to draw hash functions and by
/// components needing cheap seeded randomness (the random-walk miner):
/// splitmix64.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();

  /// Uniform in [0, bound) for bound > 0 (modulo bias is irrelevant for the
  /// hashing use).
  uint64_t NextBelow(uint64_t bound) { return Next() % bound; }

  UniversalHashFunction NextHashFunction() {
    return UniversalHashFunction(Next(), Next());
  }

 private:
  uint64_t state_;
};

}  // namespace corrmine::hash

#endif  // CORRMINE_HASH_UNIVERSAL_HASH_H_
