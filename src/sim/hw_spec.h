// Machine description for the simulated fast-interconnect system.
//
// The default preset models the paper's evaluation platform, an IBM AC922
// with a POWER9 CPU and an Nvidia Tesla V100 GPU connected by NVLink 2.0
// (SIGMOD'22 paper, Section 2.1 and 6.1). All constants are the values the
// paper reports or measures:
//   - GPU memory: 900 GB/s, 16 GiB
//   - CPU memory: 170 GB/s per socket, 128 GiB per socket
//   - NVLink 2.0: 75 GB/s raw per direction, 16-byte packet headers,
//     128-byte SM transactions, 256-byte DMA transactions
//   - GPU L2 TLB: covers 8 GiB in 32 MiB translation ranges
//   - IOMMU: 12 parallel page table walkers, 16 coalesced translations
//   - TLB latencies from Section 3.4.2 (Figure 7)
//
// Scaled(factor) shrinks every *capacity* (GPU memory, TLB coverage, page
// sizes) by `factor` while keeping bandwidths, latencies and transaction
// sizes fixed. Shrinking the workload by the same factor preserves every
// capacity ratio, so in-core/out-of-core crossovers land at the same
// relative positions as in the paper while running on a small host.

#ifndef TRITON_SIM_HW_SPEC_H_
#define TRITON_SIM_HW_SPEC_H_

#include <cstdint>
#include <string>

#include "util/units.h"

namespace triton::sim {

/// A DRAM pool (GPU on-board memory or one CPU socket's memory).
struct MemorySpec {
  /// Peak sequential bandwidth in bytes/second.
  double bandwidth = 0.0;
  /// Capacity in bytes.
  uint64_t capacity = 0;
  /// Transaction (burst) size in bytes for random accesses.
  uint32_t transaction_bytes = 32;
  /// Random *write* bandwidth derating. The paper measures GPU-memory random
  /// reads 3.2-6x faster than random writes (Section 6.2.9).
  double random_write_derate = 1.0;
};

/// The CPU<->GPU interconnect (NVLink 2.0 by default, PCI-e 3.0 preset
/// available).
struct InterconnectSpec {
  /// Raw electrical bandwidth per direction in bytes/second.
  double raw_bandwidth_per_dir = 0.0;
  /// Efficiency factor applied when both directions are loaded
  /// simultaneously (credit/flow-control sharing).
  double bidirectional_efficiency = 1.0;
  /// Packet header bytes attached to every transaction.
  uint32_t header_bytes = 16;
  /// Maximum payload of an SM-issued transaction (one L1 cacheline).
  uint32_t max_sm_payload = 128;
  /// Maximum payload of a DMA copy-engine transaction.
  uint32_t max_dma_payload = 256;
  /// Small reads are padded up to this payload size.
  uint32_t min_read_payload = 32;
  /// Small (partial-cacheline) writes carry a byte-enable header extension.
  uint32_t byte_enable_bytes = 16;
  /// Cachelines transactions must align to; misaligned accesses split.
  uint32_t alignment = 128;
};

/// Address-translation hierarchy as seen from the GPU (Section 3.4.2).
struct TlbSpec {
  /// Entries in each SM's private L1 TLB, in translation ranges. GPU
  /// vendors do not publish this; the value is calibrated so that the
  /// Shared partitioner's measured TLB-miss cliff appears between fanout
  /// 64 and 128 (Figure 18d).
  uint32_t l1_entries = 64;
  /// Bytes covered by the GPU's shared L2 TLB (8 GiB measured).
  uint64_t l2_coverage = 0;
  /// Bytes covered by one L2 TLB entry (32 MiB: 16 coalesced 2 MiB pages).
  uint64_t l2_entry_range = 0;
  /// Bytes covered by the IOMMU-side translation cache ("L3 TLB*",
  /// plateau up to ~32 GiB in Figure 7b).
  uint64_t iotlb_coverage = 0;
  /// OS page size backing CPU memory (2 MiB huge pages).
  uint64_t page_bytes = 0;

  /// L2 TLB hit latency for GPU-memory accesses (151.9 ns measured).
  double gpu_mem_hit_latency = 0.0;
  /// L2 TLB miss latency for GPU-memory accesses (226.7 ns measured).
  double gpu_mem_miss_latency = 0.0;
  /// L2 TLB hit latency for CPU-memory accesses over the link (449.7 ns).
  double cpu_mem_hit_latency = 0.0;
  /// L2 miss that hits the IOMMU-side cache ("L3 TLB*": 532.9 ns).
  double cpu_mem_iotlb_latency = 0.0;
  /// Full IOMMU page table walk ("Miss*": 3186.4 ns).
  double cpu_mem_walk_latency = 0.0;

  /// Concurrent lookups the shared L3 TLB* structure sustains (calibrated
  /// so the out-of-core no-partitioning join with perfect hashing lands at
  /// the paper's ~0.5 G tuples/s, Figure 13).
  uint32_t l3_concurrency = 128;
  /// Parallel page table walkers in the IOMMU (12 on POWER9).
  uint32_t num_walkers = 12;
  /// Translations returned per walk (up to 16 coalesced).
  uint32_t translations_per_walk = 16;
};

/// GPU execution resources (Tesla V100 "Volta").
struct GpuSpec {
  uint32_t num_sms = 0;
  /// Core clock in Hz.
  double clock_hz = 0.0;
  /// Integer lanes per SM used for throughput modelling.
  uint32_t cores_per_sm = 64;
  /// Threads per warp.
  uint32_t warp_size = 32;
  /// Scratchpad (shared memory) bytes available per thread block.
  uint64_t scratchpad_bytes = 0;
  /// Power draw under load / idle, watts (Section 6.2.11).
  double load_watts = 71.0;
  double idle_watts = 32.0;
};

/// CPU execution resources (POWER9 "Monza" or Xeon preset).
struct CpuSpec {
  std::string name;
  uint32_t cores = 0;
  double clock_hz = 0.0;
  /// SMT ways per core.
  uint32_t smt = 4;
  /// Usable last-level cache per core in bytes (5 MiB POWER9,
  /// 1.25 MiB Xeon per the paper).
  uint64_t llc_per_core = 0;
  /// Measured out-of-cache radix-partitioning rate for the whole chip,
  /// bytes/second of input (Figure 4: ~29 GiB/s on POWER9).
  double partition_bw = 0.0;
  /// Measured sequential scan bandwidth for prefix sums (Figure 20b:
  /// up to 129.6 GiB/s on POWER9).
  double scan_bw = 0.0;
  /// Per-core hash-join processing rate while data is cache-resident,
  /// tuples/second (calibrated so the POWER9 radix join reaches
  /// ~1.1 G tuples/s end-to-end as in Figure 13).
  double join_tuples_per_core = 0.0;
  /// Power draw under load, watts.
  double load_watts = 192.0;
  /// Extra CPU I/O power drawn while serving GPU interconnect traffic.
  double io_for_gpu_watts = 10.5;
};

/// Complete machine description.
struct HwSpec {
  std::string name;
  GpuSpec gpu;
  CpuSpec cpu;
  MemorySpec gpu_mem;
  MemorySpec cpu_mem;
  InterconnectSpec link;
  TlbSpec tlb;
  /// System idle power (AC922: 290 W).
  double system_idle_watts = 290.0;
  /// Capacity scale divisor applied relative to the real machine.
  double scale = 1.0;

  /// The paper's evaluation machine: IBM AC922, POWER9 + V100, NVLink 2.0.
  static HwSpec Ac922NvLink();

  /// Same host/GPU but a PCI-e 3.0 x16 interconnect (for the transfer
  /// bottleneck comparisons of Section 3).
  static HwSpec Ac922Pcie3();

  /// Intel Xeon Gold 6126 CPU preset (CPU radix join baseline only).
  static CpuSpec XeonGold6126();

  /// Returns a copy with all capacities divided by `factor` (bandwidths,
  /// latencies and transaction sizes unchanged). See file comment.
  HwSpec Scaled(double factor) const;

  /// Aggregate GPU instruction-issue throughput in (warp-)operations/second
  /// for `sms` streaming multiprocessors.
  double GpuIssueRate(uint32_t sms) const {
    return static_cast<double>(sms) * gpu.clock_hz;
  }
};

}  // namespace triton::sim

#endif  // TRITON_SIM_HW_SPEC_H_
