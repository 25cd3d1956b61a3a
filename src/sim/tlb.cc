#include "sim/tlb.h"

#include "util/bits.h"
#include "util/logging.h"

namespace triton::sim {

TranslationCache::TranslationCache(uint64_t coverage_bytes,
                                   uint64_t range_bytes, uint32_t ways)
    : range_(range_bytes), ways_(ways) {
  CHECK_GT(range_bytes, 0u);
  CHECK_GT(ways, 0u);
  uint64_t entries = coverage_bytes / range_bytes;
  if (entries < ways_) entries = ways_;
  num_sets_ = util::NextPowerOfTwo(entries / ways_);
  tags_.assign(num_sets_ * ways_, 0);
  stamp_.assign(num_sets_ * ways_, 0);
}

void TranslationCache::Flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(stamp_.begin(), stamp_.end(), 0);
}

TlbSimulator::TlbSimulator(const TlbSpec& spec)
    : spec_(spec),
      l2_(spec.l2_coverage, spec.l2_entry_range),
      l3_(spec.iotlb_coverage, spec.l2_entry_range, /*ways=*/16),
      iommu_iotlb_(spec.iotlb_coverage, spec.l2_entry_range, /*ways=*/16) {}

TranslationResult TlbSimulator::Access(uint64_t addr, PageLocation loc,
                                       PerfCounters* counters) {
  TranslationResult result;
  counters->gpu_tlb_lookups += 1;
  result.l2_hit = l2_.Access(addr);

  if (loc == PageLocation::kGpuMem) {
    if (result.l2_hit) {
      result.latency = spec_.gpu_mem_hit_latency;
    } else {
      counters->gpu_tlb_misses += 1;
      result.latency = spec_.gpu_mem_miss_latency;
    }
    return result;
  }

  // CPU-memory page: an L2 miss first consults the 32 GiB "L3 TLB*"
  // layer (the paper's Figure 7b plateau; its requests never reach the
  // CPU's IOMMU counters), and only an L3 miss becomes an IOMMU request
  // with a full page table walk.
  if (result.l2_hit) {
    result.latency = spec_.cpu_mem_hit_latency;
    return result;
  }
  counters->gpu_tlb_misses += 1;
  result.iotlb_hit = l3_.Access(addr);
  if (result.iotlb_hit) {
    counters->l3_hits += 1;
    result.latency = spec_.cpu_mem_iotlb_latency;
    return result;
  }
  return IommuAccess(addr, counters);
}

TranslationRunResult TlbSimulator::TranslateRun(uint64_t addr, uint64_t size,
                                                PageLocation loc,
                                                PerfCounters* counters) {
  DCHECK_GT(size, 0u);
  TranslationRunResult run;
  const uint64_t range = spec_.l2_entry_range;
  for (uint64_t r = addr / range; r <= (addr + size - 1) / range; ++r) {
    TranslationResult tr = Access(r * range, loc, counters);
    run.latency_sum += tr.latency;
    ++run.accesses;
  }
  return run;
}

TranslationResult TlbSimulator::IommuAccess(uint64_t addr,
                                            PerfCounters* counters) {
  TranslationResult result;
  counters->iommu_requests += 1;
  result.iotlb_hit = iommu_iotlb_.Access(addr);
  if (result.iotlb_hit) {
    result.latency = spec_.cpu_mem_iotlb_latency;
  } else {
    counters->iommu_walks += 1;
    result.latency = spec_.cpu_mem_walk_latency;
  }
  return result;
}

TranslationResult TlbSimulator::EscalateMiss(uint64_t addr, PageLocation loc,
                                             PerfCounters* counters) {
  TranslationResult result;
  result.l2_hit = false;
  counters->gpu_tlb_misses += 1;
  if (loc == PageLocation::kGpuMem) {
    result.latency = spec_.gpu_mem_miss_latency;
    return result;
  }
  // The caller (BlockTlb) models the GPU-side levels including its L3
  // slice; an escalated CPU-memory miss goes straight to the IOMMU.
  return IommuAccess(addr, counters);
}

void TlbSimulator::FlushGpuTlb() { l2_.Flush(); }

}  // namespace triton::sim
