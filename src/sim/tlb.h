// GPU address-translation simulation (Section 3.4.2 of the paper).
//
// The GPU's shared L2 TLB is modelled as a set-associative cache over
// *translation ranges* (32 MiB each on the real machine: 16 physically
// adjacent 2 MiB pages coalesced during one page-table walk). Accesses to
// CPU-memory pages that miss the L2 TLB become IOMMU translation requests;
// the IOMMU's own cache (the paper's speculative "L3 TLB*") is a second
// set-associative level. Requests that miss both require a full page-table
// walk by one of the IOMMU's 12 parallel walkers.
//
// Kernels replay their actual page-access streams through this simulator,
// so miss rates — and through them the fanout cliffs of Figures 13/14/18 —
// are emergent properties of the algorithms' address patterns.

#ifndef TRITON_SIM_TLB_H_
#define TRITON_SIM_TLB_H_

#include <cstdint>
#include <vector>

#include "sim/hw_spec.h"
#include "sim/perf_counters.h"

namespace triton::sim {

/// One set-associative translation cache level.
///
/// Capacity is expressed as covered bytes; each entry covers `range_bytes`.
/// Lookups are by byte address; replacement is per-set LRU.
class TranslationCache {
 public:
  /// Creates a cache covering `coverage_bytes` with entries spanning
  /// `range_bytes` each. `ways` is the set associativity.
  TranslationCache(uint64_t coverage_bytes, uint64_t range_bytes,
                   uint32_t ways = 8);

  /// Looks up the range containing `addr`; inserts it on miss.
  /// Returns true on hit. Defined inline: this is the innermost call of
  /// every simulated memory access (hundreds of millions per bench), and
  /// the set probe loop is small enough that call overhead dominates it.
  bool Access(uint64_t addr) {
    ++lookups_;
    ++clock_;
    uint64_t range_id = addr / range_bytes_;
    // Mix bits so contiguous ranges spread over sets.
    uint64_t h = range_id * 0x9e3779b97f4a7c15ULL;
    uint64_t set = (h >> 32) & (num_sets_ - 1);
    uint64_t base = set * ways_;
    uint64_t tag = range_id + 1;

    uint32_t victim = 0;
    uint64_t victim_stamp = UINT64_MAX;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == tag) {
        stamp_[base + w] = clock_;
        return true;
      }
      if (stamp_[base + w] < victim_stamp) {
        victim_stamp = stamp_[base + w];
        victim = w;
      }
    }
    ++misses_;
    tags_[base + victim] = tag;
    stamp_[base + victim] = clock_;
    return false;
  }

  /// Invalidates all entries (the CUDA runtime flushes GPU TLBs at kernel
  /// launch; mprotect flushes the IOTLB).
  void Flush();

  uint64_t num_entries() const { return num_sets_ * ways_; }
  uint64_t range_bytes() const { return range_bytes_; }
  uint64_t lookups() const { return lookups_; }
  uint64_t misses() const { return misses_; }

 private:
  uint64_t range_bytes_;
  uint32_t ways_;
  uint64_t num_sets_;  // power of two
  // tags_[set * ways + way]: range id + 1 (0 = invalid).
  std::vector<uint64_t> tags_;
  // lru_[set * ways + way]: logical timestamp of last use.
  std::vector<uint64_t> stamp_;
  uint64_t clock_ = 0;
  uint64_t lookups_ = 0;
  uint64_t misses_ = 0;
};

/// Which memory pool a translated page belongs to.
enum class PageLocation { kGpuMem, kCpuMem };

/// Outcome of one translated access, with the latency the paper measures
/// for that outcome (Figure 7).
struct TranslationResult {
  /// True if the GPU L2 TLB hit.
  bool l2_hit = false;
  /// For CPU-memory L2 misses: true if the "L3 TLB*" layer hit (no IOMMU
  /// request generated).
  bool iotlb_hit = false;
  /// Access latency in seconds for this outcome.
  double latency = 0.0;
};

/// Aggregate outcome of a bulk translation: one Access per translation
/// range covered by a contiguous byte run (see TlbSimulator::TranslateRun).
struct TranslationRunResult {
  /// Ranges translated (== Access calls performed).
  uint64_t accesses = 0;
  /// Sum of the per-access outcome latencies in seconds.
  double latency_sum = 0.0;
};

/// Destination for TLB misses that escalate past block-local levels.
///
/// sim::BlockTlb models the per-SM L1 and shared-slice levels itself and
/// hands full misses to a sink. During serial execution the sink is the
/// Device's TlbSimulator directly; under parallel block execution it is a
/// per-block deferring sink (exec::KernelContext) that logs the escalation.
/// Blocks never touch the shared TlbSimulator: the one reducing thread
/// replays their logs through it, in block order.
class TlbEscalationSink {
 public:
  virtual ~TlbEscalationSink() = default;

  /// Handles an access that missed every block-local level; see
  /// TlbSimulator::EscalateMiss for the accounting contract. Deferring
  /// sinks return a zero result (callers that defer discard latencies).
  virtual TranslationResult EscalateMiss(uint64_t addr, PageLocation loc,
                                         PerfCounters* counters) = 0;
};

/// Two-level translation hierarchy: GPU L2 TLB + IOMMU-side cache.
class TlbSimulator : public TlbEscalationSink {
 public:
  explicit TlbSimulator(const TlbSpec& spec);

  /// Translates an access to `addr` in the given memory pool, updating
  /// `counters` (lookups, misses, IOMMU requests/walks). Returns the
  /// outcome with its latency.
  TranslationResult Access(uint64_t addr, PageLocation loc,
                           PerfCounters* counters);

  /// Bulk translation of the contiguous byte run [addr, addr + size):
  /// performs exactly one Access per translation range the run touches, in
  /// ascending range order — the same sequence the per-access hot loops
  /// would replay — and returns the aggregate. `size` must be non-zero.
  TranslationRunResult TranslateRun(uint64_t addr, uint64_t size,
                                    PageLocation loc, PerfCounters* counters);

  /// Handles an access that already missed the GPU-side TLB levels (used
  /// by BlockTlb, which models those levels itself). For CPU-memory pages
  /// this performs the IOMMU request / IOTLB lookup / walk accounting; for
  /// GPU-memory pages it charges the on-board miss latency.
  TranslationResult EscalateMiss(uint64_t addr, PageLocation loc,
                                 PerfCounters* counters) override;

  /// A translation request arriving at the CPU's IOMMU: counted as an
  /// IOMMU request; an IOTLB hit costs the L3 TLB* latency, a miss is a
  /// full page table walk.
  TranslationResult IommuAccess(uint64_t addr, PerfCounters* counters);

  /// Flushes the GPU L2 TLB only (happens at each kernel launch).
  void FlushGpuTlb();

  const TlbSpec& spec() const { return spec_; }

 private:
  TlbSpec spec_;
  TranslationCache l2_;
  // The 32 GiB "L3 TLB*" layer of Figure 7b. The paper's IOMMU counters
  // show that accesses within this reach do not generate IOMMU requests,
  // so it is modelled GPU-side; it survives kernel launches.
  TranslationCache l3_;
  // IOMMU-side IOTLB: requests that hit here are counted but avoid the
  // full page table walk.
  TranslationCache iommu_iotlb_;
};

}  // namespace triton::sim

#endif  // TRITON_SIM_TLB_H_
