// Hardware-performance-counter equivalents collected during simulated
// kernel execution.
//
// Every kernel execution accumulates a PerfCounters record: bytes moved per
// memory pool, interconnect transactions (payload and physical volume
// including packet overhead), TLB/IOMMU events, and abstract issue-slot
// work. The cost model (sim/cost_model.h) converts a record into simulated
// elapsed time; the benchmark harness reads the raw counters directly for
// the profiling figures (14, 15, 18).

#ifndef TRITON_SIM_PERF_COUNTERS_H_
#define TRITON_SIM_PERF_COUNTERS_H_

#include <cstdint>
#include <string>

namespace triton::sim {

/// Counter record for one kernel execution (or a merged set of them).
struct PerfCounters {
  // --- GPU on-board memory traffic (bytes) ---
  uint64_t gpu_mem_read = 0;
  uint64_t gpu_mem_write = 0;
  /// Subset of gpu_mem_write issued with random (uncoalesced) addresses;
  /// subject to the random-write derate of the memory model.
  uint64_t gpu_mem_random_write = 0;

  // --- Interconnect traffic, GPU <-> CPU memory ---
  /// Payload bytes read from CPU memory (CPU -> GPU direction).
  uint64_t link_read_payload = 0;
  /// Physical bytes on the wire for reads, incl. headers and read padding.
  uint64_t link_read_physical = 0;
  /// Payload bytes written to CPU memory (GPU -> CPU direction).
  uint64_t link_write_payload = 0;
  /// Physical bytes on the wire for writes, incl. headers and byte-enables.
  uint64_t link_write_physical = 0;
  /// Transaction counts per direction.
  uint64_t link_read_txns = 0;
  uint64_t link_write_txns = 0;

  // --- CPU-side memory traffic issued by the CPU itself (bytes) ---
  uint64_t cpu_mem_read = 0;
  uint64_t cpu_mem_write = 0;

  // --- Address translation ---
  /// GPU L2 TLB lookups and misses for GPU-memory pages.
  uint64_t gpu_tlb_lookups = 0;
  uint64_t gpu_tlb_misses = 0;
  /// L2 TLB misses served by the shared "L3 TLB*" layer (533 ns); its
  /// finite lookup bandwidth throttles translation-heavy random access.
  uint64_t l3_hits = 0;
  /// Translation requests that left the GPU towards the CPU's IOMMU
  /// (the paper counts these with the POWER9 PMU; Figures 14b, 18d).
  uint64_t iommu_requests = 0;
  /// Subset of iommu_requests that missed the IOTLB and required a full
  /// page table walk.
  uint64_t iommu_walks = 0;

  // --- Execution ---
  /// Abstract issue-slot work: warp-instructions issued.
  uint64_t issue_slots = 0;
  /// Tuples processed by the kernel (for per-tuple rates).
  uint64_t tuples = 0;

  /// Adds every counter of `other` into this record.
  void Merge(const PerfCounters& other);

  /// Field-by-field equality; the determinism tests compare whole records.
  bool operator==(const PerfCounters& other) const = default;

  /// Total physical bytes on the link (both directions).
  uint64_t LinkPhysicalTotal() const {
    return link_read_physical + link_write_physical;
  }

  /// Payload bytes moved over the link (both directions).
  uint64_t LinkPayloadTotal() const {
    return link_read_payload + link_write_payload;
  }

  /// IOMMU translation requests per processed tuple (Figure 14b / 18d).
  double IommuRequestsPerTuple() const {
    return tuples == 0 ? 0.0
                       : static_cast<double>(iommu_requests) /
                             static_cast<double>(tuples);
  }

  /// Multi-line human-readable dump (for examples and debugging).
  std::string ToString() const;
};

}  // namespace triton::sim

#endif  // TRITON_SIM_PERF_COUNTERS_H_
