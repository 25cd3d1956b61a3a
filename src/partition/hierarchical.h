// Hierarchical software write-combining (Hierarchical) partitioner —
// Section 4.3, the paper's contribution powering the Triton join's first
// pass.
//
// Hierarchical extends Shared with a second buffer level in GPU memory:
// a full scratchpad (L1) buffer is evicted into its partition's L2 buffer;
// a full L2 buffer is swapped against a spare from a per-warp pool
// (double-buffering keeps the critical section to a pointer update) and
// flushed to CPU memory asynchronously. The much larger flush granularity
// slashes the TLB miss rate at high fanouts — buffering capacity is traded
// for TLB reach (Figure 18d: orders of magnitude fewer IOMMU requests).

#ifndef TRITON_PARTITION_HIERARCHICAL_H_
#define TRITON_PARTITION_HIERARCHICAL_H_

#include "partition/partitioner.h"

namespace triton::partition {

/// Thread blocks to launch for a given fanout: high fanouts need large L2
/// buffers per block, so occupancy drops until each block's flush reaches
/// a useful granularity (>= 256 tuples) — exactly how a CUDA launch is
/// occupancy-limited by its per-block memory footprint.
uint32_t HierarchicalRecommendedBlocks(const sim::HwSpec& hw,
                                       uint64_t gpu_free, uint32_t fanout);

/// Two-level SWWC partitioner; see file comment.
class HierarchicalPartitioner : public GpuPartitioner {
 public:
  const char* name() const override { return "Hierarchical"; }

  PartitionRun PartitionColumns(exec::Device& dev, const ColumnInput& input,
                                const PartitionLayout& layout,
                                mem::Buffer& out,
                                const PartitionOptions& opts) override;
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_HIERARCHICAL_H_
