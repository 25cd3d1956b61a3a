// Pseudo-random number generation for workload synthesis and the
// random-access microbenchmarks.
//
// The paper generates its random access pattern with a linear congruential
// generator (Knuth, Seminumerical Algorithms); Lcg64 reproduces that
// approach. A splitmix-based generator is provided for key shuffling where
// statistical quality matters more than the exact paper recipe.

#ifndef TRITON_UTIL_RANDOM_H_
#define TRITON_UTIL_RANDOM_H_

#include <cstdint>

namespace triton::util {

/// 64-bit linear congruential generator (MMIX multiplier/increment).
class Lcg64 {
 public:
  explicit Lcg64(uint64_t seed = 0x853c49e6748fea9bULL) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_;
  }

  /// Uniform value in [0, bound). bound must be nonzero.
  uint64_t NextBounded(uint64_t bound) {
    // Multiply-shift rejection-free mapping; slight bias is irrelevant for
    // the bound sizes used here (<= 2^40).
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next() >> 16) * bound) >> 48);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t state_;
};

/// splitmix64: fast, well-distributed; used to derive independent seeds.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro-quality generator built on splitmix, for shuffles.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : state_(seed) {}

  uint64_t Next() { return SplitMix64(state_); }

  /// Uniform value in [0, bound). bound must be nonzero.
  uint64_t NextBounded(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t state_;
};

}  // namespace triton::util

#endif  // TRITON_UTIL_RANDOM_H_
