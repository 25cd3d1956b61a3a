// Radix partitioning configuration.
//
// Multi-pass radix partitioning consumes disjoint bit ranges of the hashed
// join key: pass 1 uses bits [0, B1), pass 2 bits [B1, B1+B2), etc., where
// bit positions count hash bits already consumed (see hash/hash_fn.h).

#ifndef TRITON_PARTITION_RADIX_H_
#define TRITON_PARTITION_RADIX_H_

#include <cstdint>

#include "data/relation.h"
#include "hash/hash_fn.h"
#include "util/logging.h"

namespace triton::partition {

/// One radix pass: `bits` hash bits after `shift` already-consumed bits.
struct RadixConfig {
  uint32_t shift = 0;
  uint32_t bits = 0;

  /// Number of partitions this pass produces.
  uint32_t fanout() const {
    DCHECK_LT(bits, 32u);  // 1u << 32 is undefined behaviour
    return 1u << bits;
  }

  /// Partition index of a key.
  uint32_t PartitionOf(data::Key key) const {
    return static_cast<uint32_t>(
        hash::RadixPartition(static_cast<uint64_t>(key), shift, bits));
  }

  /// Config for the pass following this one, consuming `next_bits`.
  RadixConfig Next(uint32_t next_bits) const {
    return RadixConfig{shift + bits, next_bits};
  }

  /// Partition indices for a batch of keys. The loop body is a multiply,
  /// a shift and a mask per element with no cross-iteration dependency, so
  /// -O2 autovectorizes it: the partitioners' "SIMD" radix inner loop.
  void PartitionsOf(const data::Key* keys, uint64_t n, uint32_t* out) const {
    const uint32_t s = shift;
    const uint32_t b = bits;
    for (uint64_t j = 0; j < n; ++j) {
      out[j] = static_cast<uint32_t>(
          hash::RadixPartition(static_cast<uint64_t>(keys[j]), s, b));
    }
  }

  /// Same over row-format tuples (strided key gather).
  template <typename TupleT>
  void PartitionsOf(const TupleT* tuples, uint64_t n, uint32_t* out) const {
    const uint32_t s = shift;
    const uint32_t b = bits;
    for (uint64_t j = 0; j < n; ++j) {
      out[j] = static_cast<uint32_t>(
          hash::RadixPartition(static_cast<uint64_t>(tuples[j].key), s, b));
    }
  }
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_RADIX_H_
