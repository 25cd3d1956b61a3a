// CPU software-write-combining radix partitioner (the baseline of
// Sections 2.2 / 3.1 / 6.1).
//
// Functionally identical to the GPU partitioners (same layouts, same
// output), but executed by the CPU: per-thread SWWC buffers in the LLC,
// cacheline-sized flushes, SIMD histogramming. Its simulated time comes
// from an analytic multi-core model: the chip partitions at its measured
// out-of-cache rate (~29 GiB/s on POWER9, Figure 4), switches to two
// passes when the required fanout's SWWC buffers exceed the per-core LLC
// share (the Xeon's cliff in Figure 13), and is capped by the interconnect
// when writing to GPU memory.

#ifndef TRITON_PARTITION_CPU_SWWC_H_
#define TRITON_PARTITION_CPU_SWWC_H_

#include <cstdint>

#include "exec/device.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/partitioner.h"
#include "sim/hw_spec.h"

namespace triton::partition {

/// Maximum radix bits a CPU can partition with in one pass: each thread's
/// SWWC buffers (one cacheline per partition) must fit in half its LLC
/// share.
uint32_t CpuMaxSinglePassBits(const sim::CpuSpec& cpu);

/// Number of passes the CPU needs for `bits` radix bits.
uint32_t CpuPartitionPasses(const sim::CpuSpec& cpu, uint32_t bits);

/// Chip-level partitioning rate (bytes/s) for `bits` radix bits over
/// `passes` passes: the measured out-of-cache rate, mildly degraded by
/// very high single-pass fanouts (TLB pressure on the CPU side as well).
double CpuPartitionRate(const sim::CpuSpec& cpu, uint32_t bits,
                        uint32_t passes);

/// Rate (bytes/s) at which the CPU side moves data over the interconnect
/// by DMA: the paper's Figure 4 "CPU to GPU" plateau.
double CpuDmaBandwidth(const sim::HwSpec& hw);

/// CPU-side SWWC partitioner; see file comment.
class CpuSwwcPartitioner {
 public:
  /// Partitions with `cpu`'s cost model (defaults to the device's host CPU
  /// when `cpu` is null).
  explicit CpuSwwcPartitioner(const sim::CpuSpec* cpu = nullptr)
      : cpu_(cpu) {}

  const char* name() const { return "CPU-SWWC"; }

  PartitionRun PartitionColumns(exec::Device& dev, const ColumnInput& input,
                                const PartitionLayout& layout,
                                mem::Buffer& out,
                                const PartitionOptions& opts);

 private:
  const sim::CpuSpec* cpu_;
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_CPU_SWWC_H_
