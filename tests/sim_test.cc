#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/cost_model.h"
#include "sim/hw_spec.h"
#include "sim/packetizer.h"
#include "sim/perf_counters.h"
#include "sim/tlb.h"
#include "tests/tlb_reference.h"
#include "util/random.h"
#include "util/units.h"

namespace triton::sim {
namespace {

using util::kGiB;
using util::kMiB;

// --- HwSpec ---

TEST(HwSpecTest, Ac922PresetMatchesPaperConstants) {
  HwSpec hw = HwSpec::Ac922NvLink();
  EXPECT_EQ(hw.gpu.num_sms, 80u);
  EXPECT_EQ(hw.gpu_mem.capacity, 16 * kGiB);
  EXPECT_DOUBLE_EQ(hw.gpu_mem.bandwidth, 900e9);
  EXPECT_DOUBLE_EQ(hw.link.raw_bandwidth_per_dir, 75e9);
  EXPECT_EQ(hw.tlb.l2_coverage, 8 * kGiB);
  EXPECT_EQ(hw.tlb.l2_entry_range, 32 * kMiB);
  EXPECT_EQ(hw.tlb.num_walkers, 12u);
  EXPECT_NEAR(hw.tlb.cpu_mem_walk_latency, 3186.4e-9, 1e-12);
}

TEST(HwSpecTest, ScaledDividesCapacitiesOnly) {
  HwSpec hw = HwSpec::Ac922NvLink().Scaled(64);
  EXPECT_EQ(hw.gpu_mem.capacity, 16 * kGiB / 64);
  EXPECT_EQ(hw.tlb.l2_coverage, 8 * kGiB / 64);
  EXPECT_EQ(hw.tlb.page_bytes, 2 * kMiB / 64);
  // Bandwidths and latencies unchanged.
  EXPECT_DOUBLE_EQ(hw.gpu_mem.bandwidth, 900e9);
  EXPECT_DOUBLE_EQ(hw.link.raw_bandwidth_per_dir, 75e9);
  EXPECT_NEAR(hw.tlb.cpu_mem_walk_latency, 3186.4e-9, 1e-12);
  EXPECT_DOUBLE_EQ(hw.scale, 64.0);
}

TEST(HwSpecTest, ScaledPreservesCapacityRatios) {
  HwSpec base = HwSpec::Ac922NvLink();
  HwSpec scaled = base.Scaled(32);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(base.tlb.l2_coverage) / base.gpu_mem.capacity,
      static_cast<double>(scaled.tlb.l2_coverage) / scaled.gpu_mem.capacity);
}

TEST(HwSpecTest, PciePresetIsSlower) {
  HwSpec nvlink = HwSpec::Ac922NvLink();
  HwSpec pcie = HwSpec::Ac922Pcie3();
  EXPECT_LT(pcie.link.raw_bandwidth_per_dir,
            nvlink.link.raw_bandwidth_per_dir / 4);
}

// --- Packetizer ---

class PacketizerTest : public ::testing::Test {
 protected:
  InterconnectSpec spec_ = HwSpec::Ac922NvLink().link;
  Packetizer pkt_{spec_};
};

TEST_F(PacketizerTest, AlignedCachelineWriteIsOneTxn) {
  TxnStats s = pkt_.Access(0, 128, /*is_write=*/true);
  EXPECT_EQ(s.txns, 1u);
  EXPECT_EQ(s.payload, 128u);
  // Full cacheline: header only, no byte-enable extension.
  EXPECT_EQ(s.physical, 128u + 16u);
}

TEST_F(PacketizerTest, SmallWriteCarriesByteEnable) {
  TxnStats s = pkt_.Access(0, 16, /*is_write=*/true);
  EXPECT_EQ(s.txns, 1u);
  // Padded to a 32-byte sector + header + byte-enable extension.
  EXPECT_EQ(s.physical, 32u + 16u + 16u);
}

TEST_F(PacketizerTest, SmallReadsBeatSmallWrites) {
  // The paper measures small reads 44-74% faster than small writes
  // (Figure 6a); the byte-enable extension is the difference.
  for (uint64_t size : {4, 8, 16, 32, 64}) {
    TxnStats r = pkt_.Access(0, size, /*is_write=*/false);
    TxnStats w = pkt_.Access(0, size, /*is_write=*/true);
    EXPECT_LT(r.physical, w.physical) << size;
  }
}

TEST_F(PacketizerTest, SmallReadPaddedTo32Bytes) {
  TxnStats s = pkt_.Access(0, 4, /*is_write=*/false);
  EXPECT_EQ(s.txns, 1u);
  EXPECT_EQ(s.payload, 4u);
  EXPECT_EQ(s.physical, 32u + 16u);
}

TEST_F(PacketizerTest, MisalignedAccessSplitsAtCacheline) {
  // A 128-byte access misaligned by 16 bytes touches two cachelines.
  TxnStats s = pkt_.Access(16, 128, /*is_write=*/true);
  EXPECT_EQ(s.txns, 2u);
  EXPECT_EQ(s.payload, 128u);
  // 112-byte piece + 16-byte piece (padded to a 32 B sector), both partial
  // -> byte-enables.
  EXPECT_EQ(s.physical, (112u + 32u) + (32u + 32u));
}

TEST_F(PacketizerTest, PeakEfficiencyMatchesPaperEffectiveBandwidth) {
  // A perfectly coalesced, aligned SM stream carries 128 payload bytes per
  // 128 + 16 wire bytes: 88.9% of 75 GB/s = 66.7 GB/s = 62.1 GiB/s — the
  // lower end of the paper's 62-65.7 GiB/s effective bandwidth estimate.
  const double eff = static_cast<double>(spec_.max_sm_payload) /
                     (spec_.max_sm_payload + spec_.header_bytes);
  const double payload_bw = spec_.raw_bandwidth_per_dir * eff;
  EXPECT_NEAR(payload_bw / static_cast<double>(kGiB), 62.1, 0.1);
}

TEST_F(PacketizerTest, BulkMatchesPerLineAccounting) {
  // 1 MiB aligned bulk write == 8192 aligned cacheline writes.
  TxnStats bulk = pkt_.Bulk(0, 1 * kMiB, /*is_write=*/true);
  EXPECT_EQ(bulk.txns, 8192u);
  EXPECT_EQ(bulk.physical, 8192u * 144u);
}

TEST_F(PacketizerTest, BulkHandlesRaggedEdges) {
  // Start at 100 (ragged head of 28), 1000 bytes total.
  TxnStats s = pkt_.Bulk(100, 1000, /*is_write=*/false);
  // Head 28B, full lines 128..1024 (7 lines = 896B), tail 76B.
  EXPECT_EQ(s.payload, 1000u);
  EXPECT_EQ(s.txns, 1u + 7u + 1u);
}

TEST_F(PacketizerTest, ZeroSizeIsFree) {
  TxnStats s = pkt_.Bulk(0, 0, true);
  EXPECT_EQ(s.txns, 0u);
  EXPECT_EQ(s.physical, 0u);
}

// Granularity sweep: bandwidth efficiency must grow monotonically with
// access size and reach peak at 128 B (Figure 6a's shape).
TEST_F(PacketizerTest, EfficiencyGrowsWithGranularityUntil128) {
  double prev = 0.0;
  for (uint64_t size : {4, 8, 16, 32, 64, 128}) {
    TxnStats s = pkt_.Access(0, size, /*is_write=*/true);
    double eff = static_cast<double>(s.payload) / s.physical;
    EXPECT_GT(eff, prev);
    prev = eff;
  }
  // 256-byte aligned access = two perfect cacheline transactions; same
  // efficiency as 128.
  TxnStats s256 = pkt_.Access(0, 256, true);
  EXPECT_DOUBLE_EQ(static_cast<double>(s256.payload) / s256.physical,
                   128.0 / 144.0);
}

// An access inside one cacheline takes Access's inline one-transaction
// path; a longer one takes the per-line loop. Both must match this
// reference: one transaction per (partial) cacheline touched.
TxnStats PerLineReference(const InterconnectSpec& spec, uint64_t addr,
                          uint64_t size, bool is_write) {
  TxnStats out;
  const uint64_t end = addr + size;
  for (uint64_t pos = addr; pos < end;) {
    const uint64_t next = std::min(end, (pos / spec.alignment + 1) *
                                            spec.alignment);
    const uint64_t payload =
        std::min<uint64_t>(next - pos, spec.max_sm_payload);
    out.txns += 1;
    out.payload += payload;
    out.physical += std::max<uint64_t>(payload, spec.min_read_payload) +
                    spec.header_bytes;
    if (is_write && payload < spec.max_sm_payload) {
      out.physical += spec.byte_enable_bytes;
    }
    pos = next;
  }
  return out;
}

TEST_F(PacketizerTest, AccessMatchesPerLineReference) {
  for (bool is_write : {false, true}) {
    for (uint64_t size : {1, 16, 127, 128, 129, 4096}) {
      for (uint64_t offset : {0, 8, 112, 127}) {
        const uint64_t addr = 5 * 128 + offset;
        const TxnStats got = pkt_.Access(addr, size, is_write);
        const TxnStats want = PerLineReference(spec_, addr, size, is_write);
        EXPECT_EQ(got.txns, want.txns)
            << size << " B at +" << offset << " write " << is_write;
        EXPECT_EQ(got.payload, want.payload)
            << size << " B at +" << offset << " write " << is_write;
        EXPECT_EQ(got.physical, want.physical)
            << size << " B at +" << offset << " write " << is_write;
      }
    }
  }
}

// --- TranslationCache / TlbSimulator ---

using testing_ref::LruModel;

// The range id comes from a shift when the range is a power of two
// (scale 64: 512 KiB) and from a division otherwise (scale 96: 349525 B).
// A seeded stream over twice the coverage, half of it re-touching a recent
// address, must hit exactly where the model hits.
class TranslationCacheModelTest : public ::testing::TestWithParam<double> {};

TEST_P(TranslationCacheModelTest, HitSequenceMatchesLruModel) {
  const TlbSpec spec = HwSpec::Ac922NvLink().Scaled(GetParam()).tlb;
  for (uint32_t ways : {8u, 16u}) {
    TranslationCache tc(spec.l2_coverage, spec.l2_entry_range, ways);
    LruModel model(spec.l2_coverage, spec.l2_entry_range, ways);
    util::Rng rng(static_cast<uint64_t>(GetParam()) + ways);
    const uint64_t span = 2 * spec.l2_coverage;
    uint64_t addr = 0, misses = 0;
    const uint64_t lookups = 100000;
    for (uint64_t i = 0; i < lookups; ++i) {
      addr = rng.NextBounded(2) == 0 ? rng.NextBounded(span)
                                     : (addr + rng.NextBounded(4096)) % span;
      const bool want = model.Access(addr);
      misses += !want;
      ASSERT_EQ(tc.Access(addr), want) << "lookup " << i << " at " << addr;
    }
    EXPECT_EQ(tc.lookups(), lookups);
    EXPECT_EQ(tc.misses(), misses);
    EXPECT_GT(misses, lookups / 10);
    EXPECT_LT(misses, lookups * 9 / 10);
  }
}

INSTANTIATE_TEST_SUITE_P(RangeSizes, TranslationCacheModelTest,
                         ::testing::Values(64.0, 96.0));

TEST(TranslationCacheTest, HitsAfterInsert) {
  TranslationCache tc(/*coverage=*/64 * kMiB, /*range=*/1 * kMiB);
  EXPECT_FALSE(tc.Access(0));
  EXPECT_TRUE(tc.Access(0));
  EXPECT_TRUE(tc.Access(512 * 1024));  // same 1 MiB range
  EXPECT_FALSE(tc.Access(1 * kMiB));   // next range
}

TEST(TranslationCacheTest, WorkingSetWithinCoverageHits) {
  TranslationCache tc(64 * kMiB, 1 * kMiB, /*ways=*/8);
  // Touch 32 ranges (half the coverage), then re-touch: all hits.
  for (uint64_t r = 0; r < 32; ++r) tc.Access(r * kMiB);
  uint64_t misses_before = tc.misses();
  for (int rep = 0; rep < 4; ++rep) {
    for (uint64_t r = 0; r < 32; ++r) EXPECT_TRUE(tc.Access(r * kMiB));
  }
  EXPECT_EQ(tc.misses(), misses_before);
}

TEST(TranslationCacheTest, WorkingSetBeyondCoverageThrashes) {
  TranslationCache tc(64 * kMiB, 1 * kMiB, /*ways=*/8);
  // Cycle through 4x the coverage: with LRU, nearly every access misses.
  uint64_t lookups = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (uint64_t r = 0; r < 256; ++r) {
      tc.Access(r * kMiB);
      ++lookups;
    }
  }
  EXPECT_GT(tc.misses(), lookups * 8 / 10);
}

TEST(TranslationCacheTest, FlushInvalidatesEverything) {
  TranslationCache tc(64 * kMiB, 1 * kMiB);
  tc.Access(0);
  tc.Flush();
  EXPECT_FALSE(tc.Access(0));
}

TEST(TlbSimulatorTest, GpuMemoryLatencies) {
  TlbSpec spec = HwSpec::Ac922NvLink().tlb;
  TlbSimulator tlb(spec);
  PerfCounters c;
  auto miss = tlb.Access(0, PageLocation::kGpuMem, &c);
  EXPECT_FALSE(miss.l2_hit);
  EXPECT_DOUBLE_EQ(miss.latency, spec.gpu_mem_miss_latency);
  auto hit = tlb.Access(0, PageLocation::kGpuMem, &c);
  EXPECT_TRUE(hit.l2_hit);
  EXPECT_DOUBLE_EQ(hit.latency, spec.gpu_mem_hit_latency);
  EXPECT_EQ(c.gpu_tlb_lookups, 2u);
  EXPECT_EQ(c.gpu_tlb_misses, 1u);
  EXPECT_EQ(c.iommu_requests, 0u);  // GPU memory never reaches the IOMMU
}

TEST(TlbSimulatorTest, CpuMemoryMissEscalatesToIommu) {
  TlbSpec spec = HwSpec::Ac922NvLink().tlb;
  TlbSimulator tlb(spec);
  PerfCounters c;
  // Cold access: misses L2 and the L3* layer; one IOMMU walk.
  auto first = tlb.Access(0, PageLocation::kCpuMem, &c);
  EXPECT_FALSE(first.l2_hit);
  EXPECT_FALSE(first.iotlb_hit);
  EXPECT_DOUBLE_EQ(first.latency, spec.cpu_mem_walk_latency);
  EXPECT_EQ(c.iommu_requests, 1u);
  EXPECT_EQ(c.iommu_walks, 1u);

  // After a GPU-TLB flush the L3* layer still holds the range: the access
  // pays the L3 TLB* latency but generates NO IOMMU request — matching the
  // paper's counter data (Figure 14b vs Figure 7b).
  tlb.FlushGpuTlb();
  auto second = tlb.Access(0, PageLocation::kCpuMem, &c);
  EXPECT_FALSE(second.l2_hit);
  EXPECT_TRUE(second.iotlb_hit);
  EXPECT_DOUBLE_EQ(second.latency, spec.cpu_mem_iotlb_latency);
  EXPECT_EQ(c.iommu_requests, 1u);
  EXPECT_EQ(c.iommu_walks, 1u);

  // L2 hit: CPU-memory hit latency.
  auto third = tlb.Access(0, PageLocation::kCpuMem, &c);
  EXPECT_TRUE(third.l2_hit);
  EXPECT_DOUBLE_EQ(third.latency, spec.cpu_mem_hit_latency);
}

// The sharded TLB against the unsharded reference: a seeded stream of GPU
// and CPU pages mixing Access, TranslateRun, EscalateMiss and L2 flushes
// gives identical outcomes, latencies and counters. The specs cut the
// smallest level to 1, 2, 4 and 8 sets (the L2 or the IOTLB), and keep the
// 32/64-set default, so the simulator runs with 1, 2, 4 and 8 shards.
class ShardedTlbTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(ShardedTlbTest, MatchesUnshardedReference) {
  const auto [l2_sets, iotlb_sets] = GetParam();
  const TlbSpec spec = testing_ref::WithSets(
      HwSpec::Ac922NvLink().Scaled(4096).tlb, l2_sets, iotlb_sets);
  TlbSimulator tlb(spec);
  testing_ref::TlbReference ref(spec);
  const uint64_t smallest = std::min(
      TranslationCache::NumSets(spec.l2_coverage, spec.l2_entry_range, 8),
      TranslationCache::NumSets(spec.iotlb_coverage, spec.l2_entry_range,
                                16));
  EXPECT_EQ(tlb.num_shards(),
            std::min<uint64_t>(TlbSimulator::kMaxShards, smallest));
  PerfCounters got, want;
  util::Rng rng(l2_sets * 131 + iotlb_sets);
  const uint64_t span = 4 * spec.iotlb_coverage;
  const uint64_t range = spec.l2_entry_range;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t addr = (uint64_t{1} << 40) + rng.NextBounded(span);
    const PageLocation loc =
        rng.NextBounded(3) == 0 ? PageLocation::kGpuMem : PageLocation::kCpuMem;
    const uint64_t op = rng.NextBounded(100);
    if (op < 1) {
      tlb.FlushGpuTlb();
      ref.FlushGpuTlb();
    } else if (op < 15) {
      const uint64_t size = 1 + rng.NextBounded(4 * range);
      std::vector<double> lat;
      ref.TranslateRun(addr, size, loc, &want, &lat);
      double want_sum = 0.0;
      for (double l : lat) want_sum += l;
      const TranslationRunResult run = tlb.TranslateRun(addr, size, loc, &got);
      ASSERT_EQ(run.accesses, lat.size()) << "op " << i;
      ASSERT_EQ(run.latency_sum, want_sum) << "op " << i;
    } else {
      const bool escalate = op < 30;
      const TranslationResult r = escalate ? tlb.EscalateMiss(addr, loc, &got)
                                           : tlb.Access(addr, loc, &got);
      const TranslationResult w = escalate ? ref.EscalateMiss(addr, loc, &want)
                                           : ref.Access(addr, loc, &want);
      ASSERT_EQ(r.l2_hit, w.l2_hit) << "op " << i;
      ASSERT_EQ(r.iotlb_hit, w.iotlb_hit) << "op " << i;
      ASSERT_EQ(r.latency, w.latency) << "op " << i;
    }
  }
  EXPECT_EQ(got.gpu_tlb_lookups, want.gpu_tlb_lookups);
  EXPECT_EQ(got.gpu_tlb_misses, want.gpu_tlb_misses);
  EXPECT_EQ(got.l3_hits, want.l3_hits);
  EXPECT_EQ(got.iommu_requests, want.iommu_requests);
  EXPECT_EQ(got.iommu_walks, want.iommu_walks);
  // The stream exercises every outcome.
  EXPECT_GT(want.l3_hits, 0u);
  EXPECT_GT(want.iommu_walks, 0u);
  EXPECT_LT(want.iommu_walks, want.iommu_requests);
}

INSTANTIATE_TEST_SUITE_P(
    SmallestLevelSets, ShardedTlbTest,
    ::testing::Values(std::make_tuple(uint64_t{1}, uint64_t{0}),
                      std::make_tuple(uint64_t{2}, uint64_t{0}),
                      std::make_tuple(uint64_t{0}, uint64_t{4}),
                      std::make_tuple(uint64_t{8}, uint64_t{0}),
                      std::make_tuple(uint64_t{0}, uint64_t{0})));

// --- CostModel ---

TEST(CostModelTest, LinkBoundKernel) {
  HwSpec hw = HwSpec::Ac922NvLink();
  CostModel cm(hw);
  PerfCounters c;
  c.link_read_physical = static_cast<uint64_t>(75e9);  // 1 second of traffic
  c.link_read_payload = c.link_read_physical;
  KernelTime t = cm.Evaluate(c, hw.gpu.num_sms);
  EXPECT_NEAR(t.link, 1.0, 1e-9);
  EXPECT_STREQ(t.Bottleneck(), "link");
  EXPECT_NEAR(t.Elapsed(), 1.0, 1e-9);
}

TEST(CostModelTest, BidirectionalTrafficIsDerated) {
  HwSpec hw = HwSpec::Ac922NvLink();
  CostModel cm(hw);
  PerfCounters c;
  c.link_read_physical = static_cast<uint64_t>(75e9);
  c.link_write_physical = static_cast<uint64_t>(75e9);
  KernelTime t = cm.Evaluate(c, hw.gpu.num_sms);
  EXPECT_NEAR(t.link, 1.0 / hw.link.bidirectional_efficiency, 1e-6);
}

TEST(CostModelTest, WalkerPoolBoundsTlbMissRate) {
  HwSpec hw = HwSpec::Ac922NvLink();
  CostModel cm(hw);
  PerfCounters c;
  c.iommu_requests = 12'000'000;
  c.iommu_walks = 12'000'000;
  KernelTime t = cm.Evaluate(c, hw.gpu.num_sms);
  // 12M walks x 3186.4ns / 12 walkers = 3.186 s.
  EXPECT_NEAR(t.tlb, 3.1864, 1e-3);
  EXPECT_STREQ(t.Bottleneck(), "tlb");
}

TEST(CostModelTest, ComputeScalesWithSms) {
  HwSpec hw = HwSpec::Ac922NvLink();
  CostModel cm(hw);
  PerfCounters c;
  c.issue_slots = static_cast<uint64_t>(hw.gpu.clock_hz);  // 1 SM-second
  KernelTime t80 = cm.Evaluate(c, 80);
  KernelTime t10 = cm.Evaluate(c, 10);
  EXPECT_NEAR(t10.compute / t80.compute, 8.0, 1e-9);
}

TEST(CostModelTest, GpuRandomWritesDerated) {
  HwSpec hw = HwSpec::Ac922NvLink();
  CostModel cm(hw);
  PerfCounters seq, rnd;
  seq.gpu_mem_write = static_cast<uint64_t>(hw.gpu_mem.bandwidth);
  rnd.gpu_mem_write = static_cast<uint64_t>(hw.gpu_mem.bandwidth);
  rnd.gpu_mem_random_write = rnd.gpu_mem_write;
  KernelTime ts = cm.Evaluate(seq, 80);
  KernelTime tr = cm.Evaluate(rnd, 80);
  EXPECT_NEAR(tr.gpu_mem / ts.gpu_mem, 1.0 / hw.gpu_mem.random_write_derate,
              1e-9);
}

TEST(CostModelTest, LatencyBoundPointerChase) {
  HwSpec hw = HwSpec::Ac922NvLink();
  CostModel cm(hw);
  PerfCounters c;
  // One dependent chain: 1M accesses at 500ns each on 1 SM, 1 warp.
  KernelTime t = cm.Evaluate(c, 1, /*avg_access_latency=*/500e-9,
                             /*latency_bound_accesses=*/1'000'000,
                             /*occupancy_warps_per_sm=*/1);
  EXPECT_NEAR(t.latency, 0.5, 1e-9);
}

TEST(CostModelTest, LinkUtilization) {
  HwSpec hw = HwSpec::Ac922NvLink();
  CostModel cm(hw);
  PerfCounters c;
  c.link_read_physical = static_cast<uint64_t>(37.5e9);
  EXPECT_NEAR(cm.LinkUtilization(c, 1.0), 0.5, 1e-9);
}

TEST(PerfCountersTest, MergeAddsEverything) {
  PerfCounters a, b;
  a.link_read_payload = 100;
  a.tuples = 5;
  b.link_read_payload = 50;
  b.tuples = 3;
  b.iommu_requests = 7;
  a.Merge(b);
  EXPECT_EQ(a.link_read_payload, 150u);
  EXPECT_EQ(a.tuples, 8u);
  EXPECT_EQ(a.iommu_requests, 7u);
}

TEST(PerfCountersTest, DerivedRates) {
  PerfCounters c;
  c.tuples = 100;
  c.iommu_requests = 25;
  EXPECT_DOUBLE_EQ(c.IommuRequestsPerTuple(), 0.25);
}

}  // namespace
}  // namespace triton::sim
