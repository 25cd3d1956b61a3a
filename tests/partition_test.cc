#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "data/generator.h"
#include "exec/device.h"
#include "partition/cpu_swwc.h"
#include "partition/hierarchical.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/linear.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "partition/standard.h"
#include "sanitizer/sanitizer.h"
#include "sim/hw_spec.h"
#include "util/units.h"

namespace triton::partition {
namespace {

using util::kMiB;

class PartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hw_ = sim::HwSpec::Ac922NvLink().Scaled(64);
    dev_ = std::make_unique<exec::Device>(hw_);
  }

  /// Generates a workload with `n` R tuples and returns its column input.
  data::Workload MakeWorkload(uint64_t n) {
    data::WorkloadConfig cfg;
    cfg.r_tuples = n;
    cfg.s_tuples = n;
    auto wl = data::GenerateWorkload(dev_->allocator(), cfg);
    CHECK_OK(wl.status());
    return std::move(wl).value();
  }

  /// Exact-scatter oracle: compares every slice of `out` byte for byte
  /// with a reference stable scatter of `input`. Block b owns the
  /// contiguous chunk [b * ceil(n / B), (b + 1) * ceil(n / B)) of the
  /// input, and its tuples of partition p land at SliceBegin(p, b) onward
  /// in input order. Padding between slices is outside the contract.
  template <typename Input>
  void VerifyPartitioned(const Input& input, const PartitionLayout& layout,
                         const mem::Buffer& out) {
    const uint64_t n = input.size();
    std::vector<Tuple> in(n);
    input.GetBatch(0, n, in.data());
    const uint32_t fanout = layout.fanout();
    const uint32_t blocks = layout.num_blocks();
    const uint64_t chunk = (n + blocks - 1) / blocks;
    std::vector<Tuple> expected(layout.padded_tuples());
    std::vector<uint64_t> cursor(fanout);
    uint64_t total = 0;
    for (uint32_t b = 0; b < blocks; ++b) {
      for (uint32_t p = 0; p < fanout; ++p) {
        cursor[p] = layout.SliceBegin(p, b);
      }
      const uint64_t begin = std::min(n, b * chunk);
      const uint64_t end = std::min(n, begin + chunk);
      for (uint64_t i = begin; i < end; ++i) {
        const uint32_t p = layout.radix().PartitionOf(in[i].key);
        ASSERT_LT(cursor[p], layout.SliceBegin(p, b) + layout.SliceSize(p, b))
            << "slice (" << p << ", " << b << ") overflows";
        expected[cursor[p]++] = in[i];
      }
      for (uint32_t p = 0; p < fanout; ++p) {
        ASSERT_EQ(cursor[p], layout.SliceBegin(p, b) + layout.SliceSize(p, b))
            << "slice (" << p << ", " << b << ") is short";
        total += layout.SliceSize(p, b);
      }
    }
    ASSERT_EQ(total, n);
    const Tuple* rows = out.as<Tuple>();
    for (uint32_t p = 0; p < fanout; ++p) {
      for (uint32_t b = 0; b < blocks; ++b) {
        const uint64_t at = layout.SliceBegin(p, b);
        ASSERT_EQ(std::memcmp(rows + at, expected.data() + at,
                              layout.SliceSize(p, b) * sizeof(Tuple)),
                  0)
            << "slice (" << p << ", " << b << ") differs from the reference";
      }
    }
  }

  /// Runs one algorithm end to end (prefix sum + scatter) and verifies it.
  PartitionRun RunAndVerify(GpuPartitioner& algo, uint64_t n, uint32_t bits,
                            uint32_t blocks = 8) {
    auto wl = MakeWorkload(n);
    ColumnInput input = ColumnInput::Of(wl.r);
    RadixConfig radix{0, bits};
    PartitionLayout layout = GpuPrefixSum(*dev_, input, radix, blocks);
    auto out = dev_->allocator().AllocateCpu(layout.padded_tuples() *
                                             sizeof(Tuple));
    CHECK_OK(out.status());
    PartitionRun run =
        algo.PartitionColumns(*dev_, input, layout, *out, {});
    VerifyPartitioned(input, layout, *out);
    return run;
  }

  sim::HwSpec hw_;
  std::unique_ptr<exec::Device> dev_;
};

// --- Layout ---

TEST_F(PartitionTest, LayoutOffsetsArePaddedAndOrdered) {
  std::vector<std::vector<uint64_t>> hist = {{3, 10}, {5, 1}};
  PartitionLayout layout(RadixConfig{0, 1}, hist);
  ASSERT_EQ(kSlicePadTuples, 8u);
  EXPECT_EQ(layout.fanout(), 2u);
  EXPECT_EQ(layout.num_blocks(), 2u);
  EXPECT_EQ(layout.SliceBegin(0, 0), 0u);
  EXPECT_EQ(layout.SliceSize(0, 0), 3u);
  EXPECT_EQ(layout.SliceBegin(0, 1), 8u);   // padded to 8
  EXPECT_EQ(layout.SliceBegin(1, 0), 16u);  // 8+5=13, padded to 16
  EXPECT_EQ(layout.PartitionSize(0), 8u);
  EXPECT_EQ(layout.PartitionSize(1), 11u);
  EXPECT_EQ(layout.data_tuples(), 19u);
  EXPECT_EQ(layout.padded_tuples() % 8, 0u);
}

TEST_F(PartitionTest, HistogramsMatchManualCount) {
  auto wl = MakeWorkload(10000);
  ColumnInput input = ColumnInput::Of(wl.r);
  RadixConfig radix{0, 4};
  auto hist = ComputeHistograms(input, radix, 4);
  ASSERT_EQ(hist.size(), 4u);
  uint64_t total = 0;
  for (const auto& h : hist) {
    for (uint64_t c : h) total += c;
  }
  EXPECT_EQ(total, 10000u);
  // Uniform keys: each of 16 partitions gets ~1/16.
  std::vector<uint64_t> per_partition(16, 0);
  for (const auto& h : hist) {
    for (int p = 0; p < 16; ++p) per_partition[p] += h[p];
  }
  for (int p = 0; p < 16; ++p) {
    EXPECT_NEAR(per_partition[p], 625.0, 625.0 * 0.3);
  }
}

// --- Prefix sums ---

TEST_F(PartitionTest, GpuAndCpuPrefixSumsAgree) {
  auto wl = MakeWorkload(5000);
  ColumnInput input = ColumnInput::Of(wl.r);
  RadixConfig radix{0, 5};
  PartitionLayout a = GpuPrefixSum(*dev_, input, radix, 4);
  PartitionLayout b = CpuPrefixSum(*dev_, input, radix, 4);
  ASSERT_EQ(a.fanout(), b.fanout());
  for (uint32_t p = 0; p < a.fanout(); ++p) {
    EXPECT_EQ(a.PartitionSize(p), b.PartitionSize(p));
    for (uint32_t blk = 0; blk < 4; ++blk) {
      EXPECT_EQ(a.SliceBegin(p, blk), b.SliceBegin(p, blk));
    }
  }
}

TEST_F(PartitionTest, GpuPrefixSumReadsOnlyKeyColumn) {
  auto wl = MakeWorkload(4096);
  ColumnInput input = ColumnInput::Of(wl.r);
  dev_->ClearTrace();
  GpuPrefixSum(*dev_, input, RadixConfig{0, 4}, 4);
  ASSERT_EQ(dev_->trace().size(), 1u);
  // Only the 8-byte key column crosses the link... plus the payload column,
  // which must NOT be read.
  EXPECT_EQ(dev_->trace()[0].counters.link_read_payload,
            4096u * sizeof(data::Key));
}

TEST_F(PartitionTest, CpuPrefixSumIsFasterThanGpu) {
  auto wl = MakeWorkload(1 << 18);
  ColumnInput input = ColumnInput::Of(wl.r);
  dev_->ClearTrace();
  GpuPrefixSum(*dev_, input, RadixConfig{0, 6}, 8);
  CpuPrefixSum(*dev_, input, RadixConfig{0, 6}, 8);
  ASSERT_EQ(dev_->trace().size(), 2u);
  // Figure 20: the CPU scans ~2x faster than the GPU's link-bound read.
  EXPECT_LT(dev_->trace()[1].Elapsed(), dev_->trace()[0].Elapsed());
}

// --- Correctness of all partitioners (parameterized) ---

enum class Algo { kStandard, kLinear, kShared, kHierarchical, kCpu };
using AlgoParam = std::tuple<Algo, uint32_t>;

class AllPartitionersTest
    : public PartitionTest,
      public ::testing::WithParamInterface<AlgoParam> {
 protected:
  std::unique_ptr<GpuPartitioner> MakeGpu(Algo a) {
    switch (a) {
      case Algo::kStandard:
        return std::make_unique<StandardPartitioner>();
      case Algo::kLinear:
        return std::make_unique<LinearPartitioner>();
      case Algo::kShared:
        return std::make_unique<SharedPartitioner>();
      case Algo::kHierarchical:
        return std::make_unique<HierarchicalPartitioner>();
      default:
        return nullptr;
    }
  }
};

TEST_P(AllPartitionersTest, ProducesCorrectPartitions) {
  auto [algo, bits] = GetParam();
  if (algo == Algo::kCpu) {
    auto wl = MakeWorkload(20000);
    ColumnInput input = ColumnInput::Of(wl.r);
    RadixConfig radix{0, bits};
    PartitionLayout layout = CpuPrefixSum(*dev_, input, radix, 4);
    auto out =
        dev_->allocator().AllocateCpu(layout.padded_tuples() * sizeof(Tuple));
    CHECK_OK(out.status());
    CpuSwwcPartitioner cpu;
    cpu.PartitionColumns(*dev_, input, layout, *out, {});
    VerifyPartitioned(input, layout, *out);
    return;
  }
  auto gpu = MakeGpu(algo);
  RunAndVerify(*gpu, 20000, bits, /*blocks=*/4);
}

std::string AlgoParamName(const ::testing::TestParamInfo<AlgoParam>& info) {
  static const char* kNames[] = {"Standard", "Linear", "Shared",
                                 "Hierarchical", "Cpu"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_bits" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPartitionersTest,
    ::testing::Combine(::testing::Values(Algo::kStandard, Algo::kLinear,
                                         Algo::kShared, Algo::kHierarchical,
                                         Algo::kCpu),
                       ::testing::Values(1u, 3u, 6u, 9u)),
    AlgoParamName);

// --- Second pass over row input ---

TEST_F(PartitionTest, TwoPassPartitioningRefinesPartitions) {
  auto wl = MakeWorkload(30000);
  ColumnInput input = ColumnInput::Of(wl.r);
  RadixConfig pass1{0, 3};
  SharedPartitioner shared;
  PartitionLayout layout1 = GpuPrefixSum(*dev_, input, pass1, 4);
  auto out1 =
      dev_->allocator().AllocateCpu(layout1.padded_tuples() * sizeof(Tuple));
  CHECK_OK(out1.status());
  shared.PartitionColumns(*dev_, input, layout1, *out1, {});
  VerifyPartitioned(input, layout1, *out1);

  // Second pass over partition 2, once per slice (one-slice views) and
  // once over the whole partition read through its slices.
  RadixConfig pass2 = pass1.Next(4);
  const uint32_t p = 2;
  auto refine = [&](const RowInput& rows) {
    PartitionLayout layout2 = GpuPrefixSum(*dev_, rows, pass2, 2);
    auto out2 = dev_->allocator().AllocateCpu(layout2.padded_tuples() *
                                              sizeof(Tuple));
    CHECK_OK(out2.status());
    shared.PartitionRows(*dev_, rows, layout2, *out2, {});
    VerifyPartitioned(rows, layout2, *out2);
    // All tuples in the sub-partitions still belong to first-pass
    // partition p.
    const Tuple* r2 = out2->as<Tuple>();
    for (uint32_t q = 0; q < layout2.fanout(); ++q) {
      layout2.ForEachSlice(q, [&](uint64_t b2, uint64_t c2) {
        for (uint64_t i = b2; i < b2 + c2; ++i) {
          EXPECT_EQ(pass1.PartitionOf(r2[i].key), p);
          EXPECT_EQ(pass2.PartitionOf(r2[i].key), q);
        }
      });
    }
  };
  layout1.ForEachSlice(p, [&](uint64_t begin, uint64_t count) {
    refine(RowInput(&*out1, begin, count));
  });
  refine(PartitionInputOf(*out1, layout1, p));
}

// The row view over a ragged slice list (different lengths, gaps, an empty
// slice, slices crossing pages) reads as one flat index space: batches that
// start mid-slice and span several slices equal a flat copy, and the read
// accounting is one sequential read per slice touched. The buffer's pages
// alternate between GPU and CPU memory, so a read at the wrong offset books
// different counters.
TEST_F(PartitionTest, RowInputReadsRaggedSlicesAsOneFlatRange) {
  const uint64_t page = hw_.tlb.page_bytes / sizeof(Tuple);
  const uint64_t tuples = 16 * page;
  const std::vector<std::pair<uint64_t, uint64_t>> slices = {
      {8, 5},
      {page - 100, 300},
      {2 * page, 0},
      {2 * page + 10, 1},
      {3 * page - 3, 7},
      {4 * page + 500, 5 * page},
      {12 * page - 1, 3}};
  auto allocate = [&](exec::Device& dev) {
    auto buf = dev.allocator().AllocateInterleaved(tuples * sizeof(Tuple),
                                                   tuples * sizeof(Tuple) / 2);
    CHECK_OK(buf.status());
    return std::move(buf).value();
  };
  mem::Buffer buf = allocate(*dev_);
  Tuple* rows = buf.as<Tuple>();
  for (uint64_t i = 0; i < tuples; ++i) {
    rows[i] = Tuple{static_cast<int64_t>(i + 1), static_cast<int64_t>(3 * i)};
  }
  std::vector<Tuple> flat;
  for (const auto& [at, count] : slices) {
    flat.insert(flat.end(), rows + at, rows + at + count);
  }
  const RowInput view(&buf, slices);
  ASSERT_EQ(view.size(), flat.size());

  // Flat slice starts: 0, 5, 305, 305, 306, 313, 313 + 5 * page.
  const uint64_t n_all = flat.size();
  const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {2, 310}, {303, 20}, {306, n_all - 306}, {0, n_all}, {5000, n_all - 5000}};
  for (const auto& [i, n] : ranges) {
    std::vector<Tuple> got(n);
    view.GetBatch(i, n, got.data());
    EXPECT_EQ(std::memcmp(got.data(), flat.data() + i, n * sizeof(Tuple)), 0)
        << "GetBatch(" << i << ", " << n << ")";
    std::vector<data::Key> keys(n);
    view.KeysBatch(i, n, keys.data());
    for (uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(keys[j], flat[i + j].key) << "KeysBatch(" << i << ", " << n
                                          << ") at " << j;
    }
  }

  // A one-slice view is the contiguous range.
  const RowInput one(&buf, 4 * page + 500, 5 * page);
  ASSERT_EQ(one.size(), 5 * page);
  std::vector<Tuple> got(300);
  one.GetBatch(page + 7, 300, got.data());
  EXPECT_EQ(
      std::memcmp(got.data(), rows + 5 * page + 507, 300 * sizeof(Tuple)), 0);

  // AccountRead over each range books the counters of one ReadSeq per
  // slice the range touches. Each side runs on a fresh device, so both see
  // the same addresses and a cold TLB.
  auto counters_of = [&](auto account) {
    exec::Device dev(hw_);
    mem::Buffer b = allocate(dev);
    return dev
        .Launch({.name = "read"},
                [&](exec::KernelContext& ctx) { account(ctx, b); })
        .counters;
  };
  for (const auto& [i, n] : ranges) {
    const sim::PerfCounters got_counters =
        counters_of([&](exec::KernelContext& ctx, const mem::Buffer& b) {
          RowInput(&b, slices).AccountRead(ctx, i, i + n);
        });
    const sim::PerfCounters want =
        counters_of([&](exec::KernelContext& ctx, const mem::Buffer& b) {
          uint64_t start = 0;
          for (const auto& [at, count] : slices) {
            const uint64_t lo = std::max(i, start);
            const uint64_t hi = std::min(i + n, start + count);
            if (lo < hi) {
              ctx.ReadSeq(b, (at + lo - start) * sizeof(Tuple),
                          (hi - lo) * sizeof(Tuple));
            }
            start += count;
          }
        });
    EXPECT_EQ(want.link_read_payload + want.gpu_mem_read, n * sizeof(Tuple));
    EXPECT_TRUE(got_counters == want) << "AccountRead(" << i << ", " << i + n
                                      << ")";
  }
}

// With GPU memory exhausted, Hierarchical cannot allocate its L2 buffers
// in GPU memory and evicts each full L1 buffer straight to the output.
TEST_F(PartitionTest, HierarchicalWithoutGpuMemoryFlushesL1Directly) {
  exec::Device dev(hw_, /*sanitize=*/true);
  data::WorkloadConfig cfg;
  cfg.r_tuples = 20000;
  cfg.s_tuples = 1;
  auto wl = data::GenerateWorkload(dev.allocator(), cfg);
  CHECK_OK(wl.status());
  ColumnInput input = ColumnInput::Of(wl->r);
  PartitionLayout layout = GpuPrefixSum(dev, input, RadixConfig{0, 6}, 4);
  auto out =
      dev.allocator().AllocateCpu(layout.padded_tuples() * sizeof(Tuple));
  CHECK_OK(out.status());
  HierarchicalPartitioner hier;

  // Control: with GPU memory free, evictions stage through L2.
  PartitionRun staged = hier.PartitionColumns(dev, input, layout, *out, {});
  VerifyPartitioned(input, layout, *out);
  EXPECT_GT(staged.record.counters.gpu_mem_write, 0u);

  auto hog = dev.allocator().AllocateGpu(dev.allocator().gpu_free());
  CHECK_OK(hog.status());
  ASSERT_EQ(dev.allocator().gpu_free(), 0u);
  std::memset(out->data(), 0, out->size());  // drop the control's output
  PartitionRun direct = hier.PartitionColumns(dev, input, layout, *out, {});
  VerifyPartitioned(input, layout, *out);
  EXPECT_EQ(direct.record.counters.gpu_mem_write, 0u);
  // Same L1 capacity and fill order as Shared, so the same flushes.
  SharedPartitioner shared;
  EXPECT_EQ(direct.flushes,
            shared.PartitionColumns(dev, input, layout, *out, {}).flushes);
  std::vector<sanitizer::Violation> vs = dev.sanitizer()->TakeViolations();
  EXPECT_TRUE(vs.empty()) << vs.size() << " violation(s), first: "
                          << vs.front().message;
}

// --- Design-goal properties (Table 1) ---

TEST_F(PartitionTest, SwwcBufferSizing) {
  // 64 KiB scratchpad, 16-byte tuples — the paper's examples.
  EXPECT_EQ(SwwcBufferTuples(64 * 1024, 256), 16u);   // Section 6.2.6
  EXPECT_EQ(SwwcBufferTuples(64 * 1024, 512), 8u);
  EXPECT_EQ(SwwcBufferTuples(64 * 1024, 2048), 2u);   // below 128 B
  EXPECT_EQ(SwwcBufferTuples(64 * 1024, 4096), 1u);
}

TEST_F(PartitionTest, SharedWritesArePerfectlyCoalescedAtModerateFanout) {
  SharedPartitioner shared;
  PartitionRun run = RunAndVerify(shared, 60000, 5, 4);
  // Fanout 32: buffers hold 128 tuples; every flush is whole 128-byte
  // transactions: physical overhead is exactly headers (144/128).
  const auto& c = run.record.counters;
  EXPECT_GT(c.link_write_txns, 0u);
  double tuples_per_txn =
      static_cast<double>(c.tuples) / static_cast<double>(c.link_write_txns);
  EXPECT_NEAR(tuples_per_txn, 8.0, 0.25);  // 8 tuples = one 128 B txn
}

TEST_F(PartitionTest, StandardWastesLinkBandwidth) {
  StandardPartitioner standard;
  SharedPartitioner shared;
  PartitionRun std_run = RunAndVerify(standard, 40000, 9, 4);
  PartitionRun shr_run = RunAndVerify(shared, 40000, 9, 4);
  // Standard's physical write volume carries far more overhead.
  double std_overhead =
      static_cast<double>(std_run.record.counters.link_write_physical) /
      static_cast<double>(std_run.record.counters.link_write_payload);
  double shr_overhead =
      static_cast<double>(shr_run.record.counters.link_write_physical) /
      static_cast<double>(shr_run.record.counters.link_write_payload);
  EXPECT_GT(std_overhead, 2.0);   // mostly-empty packets
  EXPECT_LT(shr_overhead, 1.25);  // headers (plus padded tail flushes)
}

TEST_F(PartitionTest, HierarchicalFlushesLessOftenThanShared) {
  SharedPartitioner shared;
  HierarchicalPartitioner hier;
  PartitionRun shr = RunAndVerify(shared, 60000, 9, 4);
  PartitionRun hie = RunAndVerify(hier, 60000, 9, 4);
  EXPECT_LT(hie.flushes, shr.flushes / 2);
}

TEST_F(PartitionTest, HierarchicalReducesIommuRequestsAtHighFanout) {
  // Large data + high fanout: Shared thrashes the TLB, Hierarchical
  // shields it with the L2 buffers (Figure 18d).
  uint64_t n = (hw_.tlb.l2_coverage * 3) / sizeof(Tuple);  // 3x TLB reach
  auto wl = MakeWorkload(n);
  ColumnInput input = ColumnInput::Of(wl.r);
  RadixConfig radix{0, 9};  // fanout 512 > l1_entries
  uint32_t blocks = 8;
  PartitionLayout layout = GpuPrefixSum(*dev_, input, radix, blocks);
  auto out1 =
      dev_->allocator().AllocateCpu(layout.padded_tuples() * sizeof(Tuple));
  auto out2 =
      dev_->allocator().AllocateCpu(layout.padded_tuples() * sizeof(Tuple));
  CHECK_OK(out1.status());
  CHECK_OK(out2.status());
  SharedPartitioner shared;
  HierarchicalPartitioner hier;
  auto shr = shared.PartitionColumns(*dev_, input, layout, *out1, {});
  auto hie = hier.PartitionColumns(*dev_, input, layout, *out2, {});
  // At this (scaled) working-set size the translation pressure shows up as
  // GPU-side TLB misses; at paper scale the same gap appears in the IOMMU
  // request counters (Figure 18d).
  EXPECT_GT(shr.record.counters.gpu_tlb_misses,
            4 * hie.record.counters.gpu_tlb_misses);
}

TEST_F(PartitionTest, GpuDestinationAvoidsLinkWrites) {
  auto wl = MakeWorkload(30000);
  ColumnInput input = ColumnInput::Of(wl.r);
  RadixConfig radix{0, 4};
  PartitionLayout layout = GpuPrefixSum(*dev_, input, radix, 4);
  auto out =
      dev_->allocator().AllocateGpu(layout.padded_tuples() * sizeof(Tuple));
  CHECK_OK(out.status());
  SharedPartitioner shared;
  auto run = shared.PartitionColumns(*dev_, input, layout, *out, {});
  EXPECT_EQ(run.record.counters.link_write_payload, 0u);
  EXPECT_EQ(run.record.counters.gpu_mem_write,
            30000u * sizeof(Tuple));
  VerifyPartitioned(input, layout, *out);
}

// --- CPU model ---

TEST_F(PartitionTest, CpuPassCountFollowsLlcCapacity) {
  sim::CpuSpec p9 = sim::HwSpec::Ac922NvLink().cpu;
  sim::CpuSpec xeon = sim::HwSpec::XeonGold6126();
  // POWER9 (5 MiB/core) manages 14 bits in one pass; the Xeon
  // (1.25 MiB/core) cannot (the paper's two-pass switch, Section 6.2.1).
  EXPECT_GE(CpuMaxSinglePassBits(p9), 14u);
  EXPECT_LT(CpuMaxSinglePassBits(xeon), 14u);
  EXPECT_EQ(CpuPartitionPasses(p9, 14), 1u);
  EXPECT_EQ(CpuPartitionPasses(xeon, 14), 2u);
}

TEST_F(PartitionTest, CpuToGpuDestinationIsLinkCapped) {
  auto wl = MakeWorkload(1 << 18);
  ColumnInput input = ColumnInput::Of(wl.r);
  RadixConfig radix{0, 6};
  PartitionLayout layout = CpuPrefixSum(*dev_, input, radix, 4);
  auto cpu_out =
      dev_->allocator().AllocateCpu(layout.padded_tuples() * sizeof(Tuple));
  auto gpu_out =
      dev_->allocator().AllocateGpu(layout.padded_tuples() * sizeof(Tuple));
  CHECK_OK(cpu_out.status());
  CHECK_OK(gpu_out.status());
  CpuSwwcPartitioner cpu;
  auto to_cpu = cpu.PartitionColumns(*dev_, input, layout, *cpu_out, {});
  auto to_gpu = cpu.PartitionColumns(*dev_, input, layout, *gpu_out, {});
  VerifyPartitioned(input, layout, *gpu_out);
  // Figure 4: the CPU's rate is essentially the same for both destinations
  // (memory-bound below the link limit).
  EXPECT_NEAR(to_gpu.Elapsed() / to_cpu.Elapsed(), 1.0, 0.25);
}

TEST_F(PartitionTest, CpuToGpuLinkBytesFollowTheLinkSpec) {
  // The CPU's DMA writes carry the link's own packet header: 24 bytes per
  // 256-byte transaction on PCIe 3.0, against 16 on NVLink.
  hw_ = sim::HwSpec::Ac922Pcie3().Scaled(64);
  dev_ = std::make_unique<exec::Device>(hw_);
  const uint64_t n = util::kMiB / sizeof(Tuple);
  auto wl = MakeWorkload(n);
  ColumnInput input = ColumnInput::Of(wl.r);
  PartitionLayout layout = CpuPrefixSum(*dev_, input, RadixConfig{0, 4}, 4);
  auto out =
      dev_->allocator().AllocateGpu(layout.padded_tuples() * sizeof(Tuple));
  CHECK_OK(out.status());
  CpuSwwcPartitioner cpu;
  auto run = cpu.PartitionColumns(*dev_, input, layout, *out, {});
  EXPECT_EQ(run.record.counters.link_write_payload, util::kMiB);
  EXPECT_EQ(run.record.counters.link_write_physical, 1146880u);
  EXPECT_EQ(run.record.counters.link_write_txns, 4096u);
}

}  // namespace
}  // namespace triton::partition
