// Output layout of one radix-partitioning pass.
//
// The input is split into contiguous chunks, one per thread block. Each
// block owns one *slice* per partition; the global layout orders slices
// partition-major (partition p occupies slices (p, block 0..B-1) back to
// back), so every partition is contiguous up to per-slice alignment
// padding. Slice starts are padded to the interconnect transaction size so
// that software-write-combining flushes stay perfectly coalesced
// (Section 4.2's design discussion).

#ifndef TRITON_PARTITION_LAYOUT_H_
#define TRITON_PARTITION_LAYOUT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/block_executor.h"
#include "partition/input.h"
#include "partition/radix.h"
#include "util/logging.h"

namespace triton::partition {

/// Slice alignment in tuples: 8 tuples = 128 bytes, one interconnect
/// transaction, so buffer flushes stay perfectly coalesced.
inline constexpr uint32_t kSlicePadTuples = 8;

/// Per-(partition, block) slice table; see file comment.
class PartitionLayout {
 public:
  PartitionLayout() = default;

  /// Builds the layout from per-block histograms. `histograms[b][p]` is the
  /// number of block-b tuples falling in partition p. Slice starts are
  /// aligned to kSlicePadTuples tuples.
  PartitionLayout(RadixConfig radix,
                  const std::vector<std::vector<uint64_t>>& histograms);

  const RadixConfig& radix() const { return radix_; }
  uint32_t fanout() const { return radix_.fanout(); }
  uint32_t num_blocks() const { return num_blocks_; }

  /// Total tuples of storage including padding.
  uint64_t padded_tuples() const { return padded_tuples_; }
  /// Total data tuples (sum of all slice sizes).
  uint64_t data_tuples() const { return data_tuples_; }

  /// Start offset (in tuples) of slice (partition, block).
  uint64_t SliceBegin(uint32_t partition, uint32_t block) const {
    return slice_begin_[Index(partition, block)];
  }
  /// Number of data tuples in slice (partition, block).
  uint64_t SliceSize(uint32_t partition, uint32_t block) const {
    return slice_size_[Index(partition, block)];
  }

  /// Data tuples in a partition (excluding padding).
  uint64_t PartitionSize(uint32_t partition) const {
    return partition_size_[partition];
  }

  /// Invokes fn(slice_begin, slice_size) for every non-empty slice of the
  /// partition, in storage order.
  template <typename Fn>
  void ForEachSlice(uint32_t partition, Fn&& fn) const {
    for (uint32_t b = 0; b < num_blocks_; ++b) {
      uint64_t n = SliceSize(partition, b);
      if (n > 0) fn(SliceBegin(partition, b), n);
    }
  }

 private:
  uint64_t Index(uint32_t partition, uint32_t block) const {
    DCHECK_LT(partition, fanout());
    DCHECK_LT(block, num_blocks_);
    return static_cast<uint64_t>(partition) * num_blocks_ + block;
  }

  RadixConfig radix_;
  uint32_t num_blocks_ = 0;
  uint64_t padded_tuples_ = 0;
  uint64_t data_tuples_ = 0;
  std::vector<uint64_t> slice_begin_;
  std::vector<uint64_t> slice_size_;
  std::vector<uint64_t> partition_size_;
};

/// Builds the row view of one partition of a partitioned buffer: its
/// non-empty slices in storage order.
inline RowInput PartitionInputOf(const mem::Buffer& rows,
                                 const PartitionLayout& layout, uint32_t p) {
  std::vector<std::pair<uint64_t, uint64_t>> slices;
  layout.ForEachSlice(p, [&](uint64_t begin, uint64_t count) {
    slices.emplace_back(begin, count);
  });
  return RowInput(&rows, std::move(slices));
}

/// Computes one block's histogram over input tuples [begin, end) into the
/// preallocated, zeroed `histogram` (fanout entries). The building block of
/// ComputeHistograms that the GPU prefix-sum kernels run per thread block.
/// Fetches a key tile, computes its partition indices in one vectorizable
/// pass, then counts.
template <typename Input>
void ComputeBlockHistogram(const Input& input, RadixConfig radix,
                           uint64_t begin, uint64_t end,
                           std::vector<uint64_t>& histogram) {
  DCHECK_EQ(histogram.size(), radix.fanout());
  data::Key keys[kBatchTuples];
  uint32_t pidx[kBatchTuples];
  for (uint64_t base = begin; base < end; base += kBatchTuples) {
    const uint64_t m = std::min<uint64_t>(end - base, kBatchTuples);
    input.KeysBatch(base, m, keys);
    radix.PartitionsOf(keys, m, pidx);
    for (uint64_t j = 0; j < m; ++j) ++histogram[pidx[j]];
  }
}

/// Computes per-block histograms for `input` split into `num_blocks`
/// contiguous chunks (the functional part of the prefix-sum kernels). The
/// blocks run on the exec::BlockExecutor pool, each writing only its own
/// histogram, so the result is independent of the thread count. Must not
/// be called from inside a block.
template <typename Input>
std::vector<std::vector<uint64_t>> ComputeHistograms(const Input& input,
                                                     RadixConfig radix,
                                                     uint32_t num_blocks) {
  std::vector<std::vector<uint64_t>> histograms(
      num_blocks, std::vector<uint64_t>(radix.fanout(), 0));
  const uint64_t n = input.size();
  const uint64_t chunk = (n + num_blocks - 1) / num_blocks;
  exec::BlockExecutor::Global().Run(num_blocks, [&](uint32_t b) {
    const uint64_t begin = static_cast<uint64_t>(b) * chunk;
    const uint64_t end = std::min(n, begin + chunk);
    ComputeBlockHistogram(input, radix, begin, end, histograms[b]);
  });
  return histograms;
}

}  // namespace triton::partition

#endif  // TRITON_PARTITION_LAYOUT_H_
