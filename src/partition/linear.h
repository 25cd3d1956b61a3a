// Linear-allocator SWWC (Linear) partitioner.
//
// The state of the art for in-GPU partitioning (Rui & Tu; Stehle &
// Jacobsen): a thread block stages a batch of tuples in scratchpad, sorts
// the batch by partition using a linear allocator (an atomically
// incremented free-slot counter), and flushes each partition's run to its
// cursor. Runs rarely end on transaction boundaries and cursors drift out
// of alignment, so writes are only *opportunistically* coalesced — the
// paper measures up to 156% interconnect overhead (Figure 18c) and a
// throughput drop as soon as fanout exceeds 1 (Figure 18a).

#ifndef TRITON_PARTITION_LINEAR_H_
#define TRITON_PARTITION_LINEAR_H_

#include "partition/partitioner.h"

namespace triton::partition {

/// Batch-sorting linear-allocator partitioner; see file comment.
class LinearPartitioner : public GpuPartitioner {
 public:
  const char* name() const override { return "Linear"; }

  PartitionRun PartitionColumns(exec::Device& dev, const ColumnInput& input,
                                const PartitionLayout& layout,
                                mem::Buffer& out,
                                const PartitionOptions& opts) override;
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_LINEAR_H_
