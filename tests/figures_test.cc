// Figure-regression tests: tiny-scale versions of the paper's headline
// effects, asserted qualitatively so refactors of the simulator or the
// kernels cannot silently flatten them.
//
//   Figure 7   TLB miss-latency plateaus vs memory range (pointer chasing).
//   Figure 18d Shared's TLB/IOMMU-request cliff past fanout 64 while
//              Hierarchical stays orders of magnitude lower.
//   Figure 13  The no-partitioning join's collapse once its hash table
//              exceeds GPU memory.
//
// Each test scales the hardware so the relevant capacity ratio is preserved
// at test-sized inputs (see sim::HwSpec::Scaled).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/generator.h"
#include "exec/device.h"
#include "join/no_partitioning_join.h"
#include "partition/hierarchical.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "sim/hw_spec.h"

namespace triton {
namespace {

// --- Figure 7: TLB miss latency vs memory range ---

class Figure7Regression : public ::testing::Test {
 protected:
  // Scale 256: 128 KiB translation ranges, 32 MiB L2 TLB coverage
  // (256 entries), 128 MiB L3 TLB* coverage (1024 entries), 64 MiB GPU
  // memory — chase buffers stay test-sized.
  void SetUp() override { hw_ = sim::HwSpec::Ac922NvLink().Scaled(256); }

  /// Mean latency (ns) of `chases` dependent random 8-byte reads striding
  /// one translation range through a buffer of `range` bytes.
  double MeanChaseNs(bool gpu_mem, uint64_t range, uint64_t chases) {
    exec::Device dev(hw_, /*sanitize=*/false);
    auto buf = gpu_mem ? dev.allocator().AllocateGpu(range)
                       : dev.allocator().AllocateCpu(range);
    CHECK_OK(buf.status());
    const uint64_t stride = hw_.tlb.l2_entry_range;
    double mean = 0.0;
    dev.Launch({.name = "chase", .sms = 1, .occupancy_warps_per_sm = 1,
                .latency_bound = true},
               [&](exec::KernelContext& ctx) {
                 uint64_t pos = 0;
                 for (uint64_t i = 0; i < chases; ++i) {
                   ctx.ReadRand(*buf, pos, 8);
                   pos = (pos + stride) % range;
                 }
                 mean = ctx.random_latency_sum() /
                        static_cast<double>(ctx.random_accesses()) * 1e9;
               });
    return mean;
  }

  sim::HwSpec hw_;
};

TEST_F(Figure7Regression, GpuMemoryPlateausAtHitAndMissLatency) {
  // Working set at half the L2 TLB coverage: steady-state hits.
  double in_ns = MeanChaseNs(/*gpu_mem=*/true, hw_.tlb.l2_coverage / 2,
                             /*chases=*/32768);
  // Working set at 1.5x the coverage: cyclic LRU access thrashes the TLB.
  double out_ns = MeanChaseNs(/*gpu_mem=*/true, hw_.tlb.l2_coverage * 3 / 2,
                              /*chases=*/8192);
  const double hit = hw_.tlb.gpu_mem_hit_latency * 1e9;
  const double miss = hw_.tlb.gpu_mem_miss_latency * 1e9;
  EXPECT_NEAR(in_ns, hit, 0.1 * hit) << "in-coverage plateau";
  EXPECT_GT(out_ns, (hit + miss) / 2.0) << "no miss cliff past coverage";
  EXPECT_NEAR(out_ns, miss, 0.1 * miss) << "out-of-coverage plateau";
}

TEST_F(Figure7Regression, CpuMemoryShowsThreePlateaus) {
  // Within L2 TLB coverage / within L3 TLB* coverage / beyond both.
  double l2_ns = MeanChaseNs(/*gpu_mem=*/false, hw_.tlb.l2_coverage / 2,
                             /*chases=*/65536);
  double l3_ns = MeanChaseNs(/*gpu_mem=*/false, hw_.tlb.l2_coverage * 3 / 2,
                             /*chases=*/65536);
  double walk_ns = MeanChaseNs(/*gpu_mem=*/false, hw_.tlb.iotlb_coverage * 2,
                               /*chases=*/8192);
  const double hit = hw_.tlb.cpu_mem_hit_latency * 1e9;
  const double iotlb = hw_.tlb.cpu_mem_iotlb_latency * 1e9;
  const double walk = hw_.tlb.cpu_mem_walk_latency * 1e9;
  EXPECT_NEAR(l2_ns, hit, 0.1 * hit) << "L2 TLB plateau";
  EXPECT_NEAR(l3_ns, iotlb, 0.15 * iotlb) << "L3 TLB* plateau";
  EXPECT_NEAR(walk_ns, walk, 0.1 * walk) << "page-walk plateau";
  EXPECT_LT(l2_ns, l3_ns);
  EXPECT_LT(l3_ns, walk_ns);
}

// --- Figure 18d: IOMMU requests per tuple vs fanout ---

class Figure18dRegression : public ::testing::Test {
 protected:
  // Scale 4096: 8 KiB translation ranges, so a ~5 MiB output spans far
  // more ranges than either partitioner's block TLB holds.
  void SetUp() override { hw_ = sim::HwSpec::Ac922NvLink().Scaled(4096); }

  double IommuRequestsPerTuple(partition::GpuPartitioner& algo,
                               uint32_t bits, bool hierarchical_blocks) {
    exec::Device dev(hw_, /*sanitize=*/true);
    data::WorkloadConfig cfg;
    cfg.r_tuples = 300000;
    cfg.s_tuples = 1024;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    CHECK_OK(wl.status());
    partition::ColumnInput input = partition::ColumnInput::Of(wl->r);
    partition::RadixConfig radix{0, bits};
    uint32_t blocks = hierarchical_blocks
                          ? partition::HierarchicalRecommendedBlocks(
                                hw_, dev.allocator().gpu_free(), radix.fanout())
                          : 8;
    partition::PartitionLayout layout =
        partition::CpuPrefixSum(dev, input, radix, blocks);
    auto out = dev.allocator().AllocateCpu(layout.padded_tuples() *
                                           sizeof(partition::Tuple));
    CHECK_OK(out.status());
    partition::PartitionRun run =
        algo.PartitionColumns(dev, input, layout, *out, {});
    auto violations = dev.sanitizer()->TakeViolations();
    EXPECT_TRUE(violations.empty());
    return run.record.counters.IommuRequestsPerTuple();
  }

  sim::HwSpec hw_;
};

TEST_F(Figure18dRegression, SharedCliffsPastFanout64HierarchicalStaysFlat) {
  partition::SharedPartitioner shared;
  partition::HierarchicalPartitioner hier;

  double shared_lo = IommuRequestsPerTuple(shared, /*bits=*/4, false);
  double shared_hi = IommuRequestsPerTuple(shared, /*bits=*/9, false);
  double hier_lo = IommuRequestsPerTuple(hier, /*bits=*/4, true);
  double hier_hi = IommuRequestsPerTuple(hier, /*bits=*/9, true);

  // Shared's block TLB (64 entries) thrashes once the fanout exceeds it:
  // the paper's cliff between fanout 64 and 128.
  EXPECT_GT(shared_hi, 10.0 * (shared_lo + 1e-9))
      << "Shared: lo=" << shared_lo << " hi=" << shared_hi;
  // Hierarchical's large flushes keep it orders of magnitude lower.
  EXPECT_LT(hier_hi, shared_hi / 8.0)
      << "Hierarchical hi=" << hier_hi << " vs Shared hi=" << shared_hi;
  EXPECT_LT(hier_lo, shared_hi / 8.0);
}

// --- Figure 13: no-partitioning join collapse out of core ---

class Figure13Regression : public ::testing::Test {
 protected:
  // Scale 2048: 8 MiB GPU memory, 128 MiB CPU memory. The out-of-core
  // point's hash table is 3x GPU memory, as past the paper's crossover.
  void SetUp() override { hw_ = sim::HwSpec::Ac922NvLink().Scaled(2048); }

  double NpjThroughput(uint64_t n) {
    exec::Device dev(hw_, /*sanitize=*/true);
    data::WorkloadConfig cfg;
    cfg.r_tuples = n;
    cfg.s_tuples = n;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    CHECK_OK(wl.status());
    join::NoPartitioningJoin npj({.scheme = join::HashScheme::kPerfect,
                                  .result_mode = join::ResultMode::kAggregate});
    auto run = npj.Run(dev, wl->r, wl->s);
    CHECK_OK(run.status());
    EXPECT_EQ(run->matches, n);
    auto violations = dev.sanitizer()->TakeViolations();
    EXPECT_TRUE(violations.empty());
    return run->Throughput(n, n);
  }

  sim::HwSpec hw_;
};

TEST_F(Figure13Regression, ThroughputCollapsesOnceTableExceedsGpuMemory) {
  const uint64_t in_core = 256 * 1024;
  uint64_t out_of_core = 1536 * 1024;
  ASSERT_LT(join::NpjTableBytes(join::HashScheme::kPerfect, in_core),
            hw_.gpu_mem.capacity);
  ASSERT_GT(join::NpjTableBytes(join::HashScheme::kPerfect, out_of_core),
            2 * hw_.gpu_mem.capacity);

  double tput_in = NpjThroughput(in_core);
  double tput_out = NpjThroughput(out_of_core);
  EXPECT_GT(tput_in, 3.0 * tput_out)
      << "in-core " << tput_in << " T/s vs out-of-core " << tput_out;
}

}  // namespace
}  // namespace triton
