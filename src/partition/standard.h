// Standard radix partitioner: direct per-tuple scatter.
//
// Each thread reads a tuple and writes it straight to its partition's
// cursor — no write combining at all. Every output write is a 16-byte
// random access, so interconnect packets carry mostly overhead and every
// write replays the TLB. This is the slowest baseline in Figures 17/18
// (the paper reports 10-minute runtimes for high fanouts).

#ifndef TRITON_PARTITION_STANDARD_H_
#define TRITON_PARTITION_STANDARD_H_

#include "partition/partitioner.h"

namespace triton::partition {

/// Direct-scatter baseline; see file comment.
class StandardPartitioner : public GpuPartitioner {
 public:
  const char* name() const override { return "Standard"; }

  PartitionRun PartitionColumns(exec::Device& dev, const ColumnInput& input,
                                const PartitionLayout& layout,
                                mem::Buffer& out,
                                const PartitionOptions& opts) override;
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_STANDARD_H_
