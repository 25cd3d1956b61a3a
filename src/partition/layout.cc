#include "partition/layout.h"

#include "util/bits.h"

namespace triton::partition {

PartitionLayout::PartitionLayout(
    RadixConfig radix, const std::vector<std::vector<uint64_t>>& histograms)
    : radix_(radix), num_blocks_(static_cast<uint32_t>(histograms.size())) {
  CHECK_GT(num_blocks_, 0u);
  const uint32_t fanout = radix_.fanout();
  slice_begin_.resize(static_cast<uint64_t>(fanout) * num_blocks_);
  slice_size_.resize(static_cast<uint64_t>(fanout) * num_blocks_);
  partition_size_.assign(fanout, 0);

  uint64_t cursor = 0;
  for (uint32_t p = 0; p < fanout; ++p) {
    for (uint32_t b = 0; b < num_blocks_; ++b) {
      CHECK_EQ(histograms[b].size(), fanout);
      uint64_t count = histograms[b][p];
      cursor = util::AlignUp(cursor, kSlicePadTuples);
      slice_begin_[Index(p, b)] = cursor;
      slice_size_[Index(p, b)] = count;
      cursor += count;
      partition_size_[p] += count;
      data_tuples_ += count;
    }
  }
  padded_tuples_ = util::AlignUp(cursor, kSlicePadTuples);
}

}  // namespace triton::partition
