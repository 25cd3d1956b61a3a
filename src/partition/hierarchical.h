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

/// Tuning knobs of the two-level buffer hierarchy.
struct HierarchicalConfig {
  /// GPU memory budget for L2 buffers as a fraction of the *free* GPU
  /// memory at launch. The Triton join leaves the rest to the cache and
  /// the second pass.
  double gpu_budget_fraction = 0.5;
  /// Lower/upper bounds for the per-partition L2 buffer, in tuples.
  uint32_t min_l2_tuples = 8;
  uint32_t max_l2_tuples = 4096;  // 64 KiB
};

/// Computes the per-(block, partition) L2 buffer capacity in tuples.
uint32_t L2BufferTuples(const HierarchicalConfig& config, uint64_t gpu_free,
                        uint32_t num_blocks, uint32_t fanout);

/// Thread blocks to launch for a given fanout: high fanouts need large L2
/// buffers per block, so occupancy drops until each block's flush reaches
/// a useful granularity (>= 256 tuples) — exactly how a CUDA launch is
/// occupancy-limited by its per-block memory footprint.
uint32_t HierarchicalRecommendedBlocks(const HierarchicalConfig& config,
                                       const sim::HwSpec& hw,
                                       uint64_t gpu_free, uint32_t fanout);

/// Two-level SWWC partitioner; see file comment.
class HierarchicalPartitioner : public GpuPartitioner {
 public:
  explicit HierarchicalPartitioner(HierarchicalConfig config = {})
      : config_(config) {}

  const char* name() const override { return "Hierarchical"; }

  PartitionRun PartitionColumns(exec::Device& dev, const ColumnInput& input,
                                const PartitionLayout& layout,
                                mem::Buffer& out,
                                const PartitionOptions& opts) override;

 private:
  HierarchicalConfig config_;
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_HIERARCHICAL_H_
