// Bit-twiddling helpers shared by the radix-partitioning and hashing layers.

#ifndef TRITON_UTIL_BITS_H_
#define TRITON_UTIL_BITS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/logging.h"

namespace triton::util {

/// True if x is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x = 0 maps to 1).
constexpr uint64_t NextPowerOfTwo(uint64_t x) {
  return x <= 1 ? 1 : std::bit_ceil(x);
}

/// floor(log2(x)); x must be nonzero.
constexpr uint32_t FloorLog2(uint64_t x) {
  return 63 - static_cast<uint32_t>(std::countl_zero(x));
}

/// ceil(log2(x)); x must be nonzero.
constexpr uint32_t CeilLog2(uint64_t x) {
  return x <= 1 ? 0 : FloorLog2(x - 1) + 1;
}

/// Rounds x up to the next multiple of `align`, which must be a power of
/// two (round to any other multiple with CeilDiv).
constexpr uint64_t AlignUp(uint64_t x, uint64_t align) {
  DCHECK(IsPowerOfTwo(align)) << "AlignUp to " << align;
  return (x + align - 1) & ~(align - 1);
}

/// Rounds x down to a multiple of `align`, which must be a power of two.
constexpr uint64_t AlignDown(uint64_t x, uint64_t align) {
  DCHECK(IsPowerOfTwo(align)) << "AlignDown to " << align;
  return x & ~(align - 1);
}

/// Ceil division for unsigned integers.
constexpr uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Division by a divisor fixed at construction, for per-access paths: a
/// shift when the divisor is a power of two (every size at a power-of-two
/// scale), the division otherwise.
class Divisor {
 public:
  constexpr explicit Divisor(uint64_t divisor)
      : divisor_(divisor),
        shift_(IsPowerOfTwo(divisor) ? FloorLog2(divisor) : kNoShift) {}

  constexpr uint64_t value() const { return divisor_; }

  /// x / value().
  constexpr uint64_t Divide(uint64_t x) const {
    return shift_ != kNoShift ? x >> shift_ : x / divisor_;
  }

 private:
  static constexpr uint32_t kNoShift = 64;

  uint64_t divisor_;
  uint32_t shift_;
};

/// Host cache-line size. State that different threads write — a block's
/// output slot, a TLB shard, a replay lane — is aligned to it, so no two
/// threads write the same line.
inline constexpr std::size_t kCacheLineBytes = 64;

}  // namespace triton::util

#endif  // TRITON_UTIL_BITS_H_
