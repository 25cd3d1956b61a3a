#include "sim/tlb.h"

#include <algorithm>

#include "util/bits.h"
#include "util/logging.h"

namespace triton::sim {

uint64_t TranslationCache::NumSets(uint64_t coverage_bytes,
                                   uint64_t range_bytes, uint32_t ways) {
  const uint64_t entries = std::max<uint64_t>(coverage_bytes / range_bytes,
                                              ways);
  return util::NextPowerOfTwo(entries / ways);
}

TranslationCache::TranslationCache(uint64_t coverage_bytes,
                                   uint64_t range_bytes, uint32_t ways,
                                   uint32_t shards)
    : range_(range_bytes), ways_(ways) {
  CHECK_GT(range_bytes, 0u);
  CHECK_GT(ways, 0u);
  CHECK(util::IsPowerOfTwo(shards)) << shards << " shards";
  const uint64_t sets = NumSets(coverage_bytes, range_bytes, ways);
  CHECK_LE(shards, sets) << "more shards than sets";
  num_sets_ = sets / shards;
  set_shift_ = 32 + util::FloorLog2(shards);
  tags_.assign(num_sets_ * ways_ + kPadWords, 0);
  stamp_.assign(num_sets_ * ways_ + kPadWords, 0);
}

void TranslationCache::Flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(stamp_.begin(), stamp_.end(), 0);
}

TlbSimulator::Shard::Shard(const TlbSpec& spec, uint32_t shards)
    : l2(spec.l2_coverage, spec.l2_entry_range, /*ways=*/8, shards),
      l3(spec.iotlb_coverage, spec.l2_entry_range, /*ways=*/16, shards),
      iommu_iotlb(spec.iotlb_coverage, spec.l2_entry_range, /*ways=*/16,
                  shards) {}

TlbSimulator::Outcome TlbSimulator::Shard::Access(uint64_t addr,
                                                  PageLocation loc,
                                                  PerfCounters* counters) {
  counters->gpu_tlb_lookups += 1;
  const bool l2_hit = l2.Access(addr);
  if (loc == PageLocation::kGpuMem) {
    if (l2_hit) return kGpuHit;
    counters->gpu_tlb_misses += 1;
    return kGpuMiss;
  }
  // CPU-memory page: an L2 miss first consults the 32 GiB "L3 TLB*"
  // layer (the paper's Figure 7b plateau; its requests never reach the
  // CPU's IOMMU counters), and only an L3 miss becomes an IOMMU request
  // with a full page table walk.
  if (l2_hit) return kCpuHit;
  counters->gpu_tlb_misses += 1;
  if (l3.Access(addr)) {
    counters->l3_hits += 1;
    return kCpuIotlb;
  }
  return IommuAccess(addr, counters);
}

TlbSimulator::Outcome TlbSimulator::Shard::IommuAccess(
    uint64_t addr, PerfCounters* counters) {
  counters->iommu_requests += 1;
  if (iommu_iotlb.Access(addr)) return kCpuIotlb;
  counters->iommu_walks += 1;
  return kCpuWalk;
}

TlbSimulator::Outcome TlbSimulator::Shard::EscalateMiss(
    uint64_t addr, PageLocation loc, PerfCounters* counters) {
  counters->gpu_tlb_misses += 1;
  if (loc == PageLocation::kGpuMem) return kGpuMiss;
  // The caller (BlockTlb) models the GPU-side levels including its L3
  // slice; an escalated CPU-memory miss goes straight to the IOMMU.
  return IommuAccess(addr, counters);
}

TlbSimulator::TlbSimulator(const TlbSpec& spec)
    : spec_(spec), range_(spec.l2_entry_range) {
  const uint64_t smallest_level = std::min(
      TranslationCache::NumSets(spec.l2_coverage, spec.l2_entry_range, 8),
      TranslationCache::NumSets(spec.iotlb_coverage, spec.l2_entry_range,
                                16));
  const uint32_t shards = static_cast<uint32_t>(
      std::min<uint64_t>(kMaxShards, smallest_level));
  shard_mask_ = shards - 1;
  latency_[kGpuHit] = spec.gpu_mem_hit_latency;
  latency_[kGpuMiss] = spec.gpu_mem_miss_latency;
  latency_[kCpuHit] = spec.cpu_mem_hit_latency;
  latency_[kCpuIotlb] = spec.cpu_mem_iotlb_latency;
  latency_[kCpuWalk] = spec.cpu_mem_walk_latency;
  shards_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) shards_.emplace_back(spec, shards);
}

TranslationResult TlbSimulator::Result(Outcome outcome) const {
  TranslationResult result;
  result.l2_hit = outcome == kGpuHit || outcome == kCpuHit;
  result.iotlb_hit = outcome == kCpuIotlb;
  result.latency = latency_[outcome];
  return result;
}

TranslationResult TlbSimulator::Access(uint64_t addr, PageLocation loc,
                                       PerfCounters* counters) {
  return Result(shards_[ShardOf(addr)].Access(addr, loc, counters));
}

TranslationRunResult TlbSimulator::TranslateRun(uint64_t addr, uint64_t size,
                                                PageLocation loc,
                                                PerfCounters* counters) {
  DCHECK_GT(size, 0u);
  TranslationRunResult run;
  const uint64_t range = spec_.l2_entry_range;
  for (uint64_t r = addr / range; r <= (addr + size - 1) / range; ++r) {
    const Outcome o =
        shards_[ShardOfRange(r)].Access(r * range, loc, counters);
    run.latency_sum += latency_[o];
    ++run.accesses;
  }
  return run;
}

TranslationResult TlbSimulator::EscalateMiss(uint64_t addr, PageLocation loc,
                                             PerfCounters* counters) {
  return Result(shards_[ShardOf(addr)].EscalateMiss(addr, loc, counters));
}

void TlbSimulator::FlushGpuTlb() {
  for (Shard& shard : shards_) shard.l2.Flush();
}

TlbSimulator::Outcome TlbSimulator::ReplayEntry(Shard& shard,
                                                uint64_t entry,
                                                PerfCounters* counters) {
  const uint64_t addr = TlbLogAddr(entry);
  const PageLocation loc =
      entry >> 63 ? PageLocation::kCpuMem : PageLocation::kGpuMem;
  switch (static_cast<TlbLogKind>((entry >> 61) & 3)) {
    case TlbLogKind::kRange:
      shard.Access(addr, loc, counters);
      break;
    case TlbLogKind::kLatency:
      return shard.Access(addr, loc, counters);
    case TlbLogKind::kEscalation:
      shard.EscalateMiss(addr, loc, counters);
      break;
  }
  return kNumOutcomes;
}

void TlbSimulator::ReplayShard(uint32_t shard, uint64_t* log, size_t count,
                               PerfCounters* counters) {
  Shard& s = shards_[shard];
  size_t outcomes = 0;
  for (size_t i = 0; i < count; ++i) {
    DCHECK_EQ(ShardOf(TlbLogAddr(log[i])), shard);
    const Outcome o = ReplayEntry(s, log[i], counters);
    // outcomes <= i: entry i was read above, so its slot can be reused.
    if (o != kNumOutcomes) log[outcomes++] = o;
  }
}

double TlbSimulator::Replay(const uint64_t* log, size_t count,
                            PerfCounters* counters,
                            uint64_t* latency_entries) {
  double sum = 0.0;
  uint64_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const Outcome o =
        ReplayEntry(shards_[ShardOf(TlbLogAddr(log[i]))], log[i], counters);
    if (o != kNumOutcomes) {
      sum += latency_[o];
      ++n;
    }
  }
  *latency_entries = n;
  return sum;
}

}  // namespace triton::sim
