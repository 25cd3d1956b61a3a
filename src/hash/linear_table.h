// Slot arithmetic of the linear-probing hash table (50% load factor).
//
// This is the paper's no-partitioning-join hashing scheme (Section 6.1):
// open addressing with linear probing, capacity rounded up to a power of
// two at twice the build cardinality, multiply-shift placement. The table
// itself is the no-partitioning join's (join::NpjTable), which walks the
// probe sequence step by step so it can account every slot touch (each
// touch is a random memory access in the simulation).

#ifndef TRITON_HASH_LINEAR_TABLE_H_
#define TRITON_HASH_LINEAR_TABLE_H_

#include <cstdint>

#include "hash/hash_fn.h"
#include "util/bits.h"
#include "util/logging.h"

namespace triton::hash {

/// Probe sequence over a power-of-two number of slots.
class LinearTable {
 public:
  explicit LinearTable(uint64_t capacity)
      : capacity_(capacity), mask_(capacity - 1) {
    DCHECK(util::IsPowerOfTwo(capacity));
  }

  /// Capacity (in entries) for `build_tuples` at a 50% load factor,
  /// rounded up to a power of two.
  static uint64_t CapacityFor(uint64_t build_tuples) {
    return util::NextPowerOfTwo(build_tuples * 2);
  }

  /// Home slot of a key.
  uint64_t SlotOf(int64_t key) const {
    return HashBits(MultiplyShift(static_cast<uint64_t>(key)), 0,
                    util::FloorLog2(capacity_)) &
           mask_;
  }

  /// Next slot in the probe sequence.
  uint64_t NextSlot(uint64_t slot) const { return (slot + 1) & mask_; }

 private:
  uint64_t capacity_;
  uint64_t mask_;
};

}  // namespace triton::hash

#endif  // TRITON_HASH_LINEAR_TABLE_H_
