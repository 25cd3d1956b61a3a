// Test-local reference models of the shared TLB, independent of
// sim::TlbSimulator's sharded state: one LRU list per set, one set array
// per level, no shards, no clocks.

#ifndef TRITON_TESTS_TLB_REFERENCE_H_
#define TRITON_TESTS_TLB_REFERENCE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/hw_spec.h"
#include "sim/perf_counters.h"
#include "sim/tlb.h"

namespace triton::testing_ref {

/// Model of one TranslationCache level: the same range id and set hash,
/// each set a most-recently-used-first list of at most `ways` range ids.
class LruModel {
 public:
  LruModel(uint64_t coverage_bytes, uint64_t range_bytes, uint32_t ways)
      : range_bytes_(range_bytes), ways_(ways) {
    const uint64_t entries =
        std::max<uint64_t>(coverage_bytes / range_bytes, ways);
    num_sets_ = std::bit_ceil(std::max<uint64_t>(entries / ways, 1));
    sets_.resize(num_sets_);
  }

  bool Access(uint64_t addr) {
    const uint64_t id = addr / range_bytes_;
    std::deque<uint64_t>& set =
        sets_[((id * 0x9e3779b97f4a7c15ULL) >> 32) & (num_sets_ - 1)];
    auto it = std::find(set.begin(), set.end(), id);
    const bool hit = it != set.end();
    if (hit) set.erase(it);
    else if (set.size() == ways_) set.pop_back();
    set.push_front(id);
    return hit;
  }

  void Flush() {
    for (auto& set : sets_) set.clear();
  }

  uint64_t num_sets() const { return num_sets_; }

 private:
  uint64_t range_bytes_;
  uint32_t ways_;
  uint64_t num_sets_;
  std::vector<std::deque<uint64_t>> sets_;
};

/// Unsharded model of sim::TlbSimulator: an L2 TLB (8 ways), the "L3
/// TLB*" layer and the IOMMU's IOTLB (16 ways each), routed the way
/// Access and EscalateMiss route: L2, then L3*, then the IOTLB.
class TlbReference {
 public:
  explicit TlbReference(const sim::TlbSpec& spec)
      : spec_(spec),
        l2_(spec.l2_coverage, spec.l2_entry_range, 8),
        l3_(spec.iotlb_coverage, spec.l2_entry_range, 16),
        iotlb_(spec.iotlb_coverage, spec.l2_entry_range, 16) {}

  sim::TranslationResult Access(uint64_t addr, sim::PageLocation loc,
                                sim::PerfCounters* c) {
    sim::TranslationResult r;
    c->gpu_tlb_lookups += 1;
    r.l2_hit = l2_.Access(addr);
    const bool gpu = loc == sim::PageLocation::kGpuMem;
    if (r.l2_hit) {
      r.latency = gpu ? spec_.gpu_mem_hit_latency : spec_.cpu_mem_hit_latency;
      return r;
    }
    c->gpu_tlb_misses += 1;
    if (gpu) {
      r.latency = spec_.gpu_mem_miss_latency;
      return r;
    }
    if (l3_.Access(addr)) {
      c->l3_hits += 1;
      r.iotlb_hit = true;
      r.latency = spec_.cpu_mem_iotlb_latency;
      return r;
    }
    return Iommu(addr, c);
  }

  sim::TranslationResult EscalateMiss(uint64_t addr, sim::PageLocation loc,
                                      sim::PerfCounters* c) {
    c->gpu_tlb_misses += 1;
    if (loc == sim::PageLocation::kGpuMem) {
      sim::TranslationResult r;
      r.latency = spec_.gpu_mem_miss_latency;
      return r;
    }
    return Iommu(addr, c);
  }

  /// One Access per translation range of [addr, addr + size), in order;
  /// `latencies` receives each one's latency.
  void TranslateRun(uint64_t addr, uint64_t size, sim::PageLocation loc,
                    sim::PerfCounters* c, std::vector<double>* latencies) {
    const uint64_t range = spec_.l2_entry_range;
    for (uint64_t r = addr / range; r <= (addr + size - 1) / range; ++r) {
      latencies->push_back(Access(r * range, loc, c).latency);
    }
  }

  void FlushGpuTlb() { l2_.Flush(); }

 private:
  sim::TranslationResult Iommu(uint64_t addr, sim::PerfCounters* c) {
    sim::TranslationResult r;
    c->iommu_requests += 1;
    r.iotlb_hit = iotlb_.Access(addr);
    if (r.iotlb_hit) {
      r.latency = spec_.cpu_mem_iotlb_latency;
    } else {
      c->iommu_walks += 1;
      r.latency = spec_.cpu_mem_walk_latency;
    }
    return r;
  }

  sim::TlbSpec spec_;
  LruModel l2_;
  LruModel l3_;
  LruModel iotlb_;
};

/// `spec` with its L2 TLB cut to `l2_sets` sets and its L3*/IOTLB levels
/// to `iotlb_sets` (0 keeps a level as it is): the shared TLB has
/// min(8, smallest level's sets) shards.
inline sim::TlbSpec WithSets(sim::TlbSpec spec, uint64_t l2_sets,
                             uint64_t iotlb_sets) {
  if (l2_sets != 0) spec.l2_coverage = l2_sets * 8 * spec.l2_entry_range;
  if (iotlb_sets != 0) {
    spec.iotlb_coverage = iotlb_sets * 16 * spec.l2_entry_range;
  }
  return spec;
}

}  // namespace triton::testing_ref

#endif  // TRITON_TESTS_TLB_REFERENCE_H_
