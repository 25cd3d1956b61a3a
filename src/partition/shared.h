// Shared software write-combining (Shared) partitioner — Section 4.2.
//
// The thread block shares one scratchpad SWWC buffer per partition. Warps
// fill buffer slots with lock-free atomic slot acquisition; a full buffer
// is locked by its fill-state, a leader warp flushes it as one write that
// is a multiple of — and aligned to — the interconnect transaction size
// (perfect coalescing). Sharing buffers across the whole block (instead of
// per-thread or per-warp buffers) is what makes the design fit the small
// scratchpad: space efficiency + perfect coalescing, at the price of TLB
// misses once the fanout exceeds the TLB reach (Table 1, Figure 18d).

#ifndef TRITON_PARTITION_SHARED_H_
#define TRITON_PARTITION_SHARED_H_

#include "partition/partitioner.h"

namespace triton::partition {

/// Computes the per-partition SWWC buffer capacity in tuples for a given
/// scratchpad size and fanout: floor(scratchpad / (fanout * tuple_size)),
/// rounded down to a multiple of 8 tuples (one 128-byte transaction) when
/// possible. High fanouts drop below 8 and lose perfect coalescing — the
/// paper's flush-granularity cliff (Section 6.2.5).
uint32_t SwwcBufferTuples(uint64_t scratchpad_bytes, uint32_t fanout);

/// Block-shared SWWC partitioner; see file comment.
class SharedPartitioner : public GpuPartitioner {
 public:
  const char* name() const override { return "Shared"; }

  PartitionRun PartitionColumns(exec::Device& dev, const ColumnInput& input,
                                const PartitionLayout& layout,
                                mem::Buffer& out,
                                const PartitionOptions& opts) override;

  /// Scatters row-format input: a later pass over a pass-1 partition read
  /// in place through its slices, or over a pair staged in GPU memory.
  PartitionRun PartitionRows(exec::Device& dev, const RowInput& input,
                             const PartitionLayout& layout, mem::Buffer& out,
                             const PartitionOptions& opts);

 private:
  template <typename Input>
  PartitionRun Run(exec::Device& dev, const Input& input,
                   const PartitionLayout& layout, mem::Buffer& out,
                   const PartitionOptions& opts);
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_SHARED_H_
