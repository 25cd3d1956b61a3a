// CPU-partitioned GPU join — the state-of-the-art strategy of Section 3.1
// (reimplementation of Sioulas et al., optimized for POWER9 + NVLink as in
// Section 6.2.4 / Figure 16).
//
// The CPU radix-partitions both relations into working sets that fit GPU
// memory; working sets are DMA-transferred to the GPU, which refines them
// with a second partitioning pass in GPU memory and joins them in
// scratchpad. Transfers and GPU work pipeline against the CPU's
// partitioning of the outer relation. The strategy's weakness is exactly
// the paper's argument: the CPU's partitioning rate (~29 GiB/s) cannot
// keep a 63 GiB/s interconnect busy, so the GPU starves.

#ifndef TRITON_JOIN_CPU_PARTITIONED_JOIN_H_
#define TRITON_JOIN_CPU_PARTITIONED_JOIN_H_

#include <cstdint>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "util/status.h"

namespace triton::join {

/// Configuration of the CPU-partitioned join strategy.
struct CpuPartitionedJoinConfig {
  ResultMode result_mode = ResultMode::kMaterialize;
};

/// CPU-partitioned GPU join; see file comment.
class CpuPartitionedJoin {
 public:
  explicit CpuPartitionedJoin(CpuPartitionedJoinConfig config = {})
      : config_(config) {}

  util::StatusOr<JoinRun> Run(exec::Device& dev, const data::Relation& r,
                              const data::Relation& s);

  const CpuPartitionedJoinConfig& config() const { return config_; }

 private:
  CpuPartitionedJoinConfig config_;
};

}  // namespace triton::join

#endif  // TRITON_JOIN_CPU_PARTITIONED_JOIN_H_
