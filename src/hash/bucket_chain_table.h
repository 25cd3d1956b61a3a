// Bucket-chaining hash table for scratchpad-resident join partitions.
//
// The paper's Triton and radix joins build a bucket-chaining table with
// 2048 header entries per partition in scratchpad memory (Section 6.1,
// following He et al. and Sioulas et al.). The table separates a small
// header array (bucket heads) from entry arrays (key, value, next-link),
// all over caller-provided storage, so the whole structure fits a 64 KiB
// scratchpad alongside the partition.

#ifndef TRITON_HASH_BUCKET_CHAIN_TABLE_H_
#define TRITON_HASH_BUCKET_CHAIN_TABLE_H_

#include <cstdint>

#include "hash/hash_fn.h"
#include "util/bits.h"
#include "util/logging.h"

namespace triton::hash {

/// Chained table over caller-provided arrays.
///
/// Layout: heads[num_buckets] holds the index+1 of the first entry of each
/// bucket (0 = empty); entries are appended densely with next[] links.
class BucketChainTable {
 public:
  /// Default bucket count from the paper.
  static constexpr uint32_t kDefaultBuckets = 2048;

  /// `heads` must have `num_buckets` elements (zero-initialized);
  /// `keys`/`values`/`next` must each hold `max_entries` elements.
  BucketChainTable(uint32_t* heads, uint32_t num_buckets, int64_t* keys,
                   int64_t* values, uint32_t* next, uint32_t max_entries)
      : heads_(heads),
        num_buckets_(num_buckets),
        bucket_mask_(num_buckets - 1),
        keys_(keys),
        values_(values),
        next_(next),
        max_entries_(max_entries) {
    DCHECK(util::IsPowerOfTwo(num_buckets));
  }

  uint32_t size() const { return size_; }

  /// Bucket a key belongs to. Uses hash bits disjoint from the radix
  /// partitioning bits: partitioning consumes the top `radix_shift` bits.
  uint32_t BucketOf(int64_t key, uint32_t radix_shift) const {
    return static_cast<uint32_t>(
        HashBits(MultiplyShift(static_cast<uint64_t>(key)), radix_shift,
                 util::FloorLog2(num_buckets_)) &
        bucket_mask_);
  }

  /// Inserts a key/value pair; aborts if storage is exhausted.
  void Insert(int64_t key, int64_t value, uint32_t radix_shift) {
    CHECK_LT(size_, max_entries_) << "bucket-chain table full";
    uint32_t idx = size_++;
    keys_[idx] = key;
    values_[idx] = value;
    uint32_t bucket = BucketOf(key, radix_shift);
    next_[idx] = heads_[bucket];
    heads_[bucket] = idx + 1;
  }

  /// Probes for a key; invokes `on_match(value)` for every match.
  /// Returns the chain length walked.
  template <typename Fn>
  uint32_t Probe(int64_t key, uint32_t radix_shift, Fn&& on_match) const {
    uint32_t bucket = BucketOf(key, radix_shift);
    uint32_t walked = 0;
    for (uint32_t cur = heads_[bucket]; cur != 0; cur = next_[cur - 1]) {
      ++walked;
      if (keys_[cur - 1] == key) {
        on_match(values_[cur - 1]);
      }
    }
    return walked;
  }

  /// Returns the entry index of the first match for `key`, or UINT32_MAX.
  /// Aggregations use this to accumulate into an existing group in place.
  uint32_t FindFirst(int64_t key, uint32_t radix_shift) const {
    uint32_t bucket = BucketOf(key, radix_shift);
    for (uint32_t cur = heads_[bucket]; cur != 0; cur = next_[cur - 1]) {
      if (keys_[cur - 1] == key) return cur - 1;
    }
    return UINT32_MAX;
  }

 private:
  uint32_t* heads_;
  uint32_t num_buckets_;
  uint32_t bucket_mask_;
  int64_t* keys_;
  int64_t* values_;
  uint32_t* next_;
  uint32_t max_entries_;
  uint32_t size_ = 0;
};

}  // namespace triton::hash

#endif  // TRITON_HASH_BUCKET_CHAIN_TABLE_H_
