// Hash functions used by the join algorithms.
//
// The paper uses a multiply-shift hash (Dietzfelbinger et al.) in both
// hashing schemes (Section 6.1). Radix partitioning extracts contiguous bit
// ranges of the hashed key, so the same function drives partitioning and
// hash-table placement; partition bits and in-partition hash bits never
// overlap.

#ifndef TRITON_HASH_HASH_FN_H_
#define TRITON_HASH_HASH_FN_H_

#include <cstdint>

namespace triton::hash {

/// Multiply-shift hashing: multiplies by a fixed odd constant; the high
/// bits are well mixed. Returns the full 64-bit product; callers extract
/// the bit ranges they need.
inline uint64_t MultiplyShift(uint64_t key) {
  // Odd constant from the multiply-shift family (golden-ratio based).
  return key * 0x9e3779b97f4a7c15ULL;
}

/// Extracts `bits` bits of the hash starting at `shift` (from the top, so
/// that successive radix passes consume disjoint, well-mixed ranges).
/// shift counts bits already consumed by earlier passes.
inline uint64_t HashBits(uint64_t hashed, uint32_t shift, uint32_t bits) {
  if (bits == 0) return 0;
  return (hashed >> (64 - shift - bits)) & ((uint64_t{1} << bits) - 1);
}

/// Convenience: partition index for a key in a pass consuming `bits` bits
/// after `shift` bits were consumed by earlier passes.
inline uint64_t RadixPartition(uint64_t key, uint32_t shift, uint32_t bits) {
  return HashBits(MultiplyShift(key), shift, bits);
}

}  // namespace triton::hash

#endif  // TRITON_HASH_HASH_FN_H_
