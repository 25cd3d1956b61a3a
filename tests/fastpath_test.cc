// Fast-path equivalence: the batched hot loops (util/fastpath.h) change
// how the host computes the simulation, never what is modeled. These tests
// run the same workload through the per-tuple reference path
// (SetFastPathEnabled(false) — the TRITON_FASTPATH=0 fallback) and the
// batched path, at 1 and 8 host worker threads, and assert bit-identical
// functional output, PerfCounters, modeled time and sanitizer diagnostics.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/triton_join.h"
#include "data/generator.h"
#include "exec/block_executor.h"
#include "exec/device.h"
#include "join/cpu_partitioned_join.h"
#include "join/cpu_radix_join.h"
#include "partition/hierarchical.h"
#include "partition/input.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "sanitizer/sanitizer.h"
#include "sched/coprocess_scheduler.h"
#include "sim/hw_spec.h"
#include "util/bits.h"
#include "util/fastpath.h"

namespace triton {
namespace {

/// Everything the fast path must not change about one run.
struct Outcome {
  std::vector<uint8_t> bytes;          // functional output buffer contents
  sim::PerfCounters counters;          // modeled hardware counters
  uint64_t aux = 0;                    // flushes / matches
  uint64_t checksum = 0;               // join result checksum
  double elapsed = 0.0;                // modeled seconds (exact compare)
  std::vector<std::string> diags;      // sanitizer messages, in order
};

void ExpectSameOutcome(const Outcome& a, const Outcome& b,
                       const char* what) {
  EXPECT_EQ(a.bytes, b.bytes) << what << ": functional output differs";
  EXPECT_TRUE(a.counters == b.counters) << what << ": counters differ";
  EXPECT_EQ(a.aux, b.aux) << what;
  EXPECT_EQ(a.checksum, b.checksum) << what;
  EXPECT_EQ(a.elapsed, b.elapsed) << what << ": modeled time differs";
  EXPECT_EQ(a.diags, b.diags) << what << ": sanitizer diagnostics differ";
}

std::vector<std::string> DrainDiags(exec::Device& dev) {
  std::vector<std::string> out;
  if (dev.sanitizer() == nullptr) return out;
  for (const sanitizer::Violation& v : dev.sanitizer()->TakeViolations()) {
    out.push_back(v.message);
  }
  return out;
}

class FastPathTest : public ::testing::Test {
 protected:
  void SetUp() override { hw_ = sim::HwSpec::Ac922NvLink().Scaled(64); }

  void TearDown() override {
    // Restore process defaults for any sibling code in this binary.
    util::SetFastPathEnabled(true);
    exec::BlockExecutor::Global().SetThreads(0);
  }

  /// Runs one GPU partitioner end-to-end with the given mode and thread
  /// count; the sanitizer is on (tests/sanitizer_default.cc).
  Outcome RunPartition(partition::GpuPartitioner& p, bool hierarchical,
                       uint32_t fanout, bool fast, uint32_t threads) {
    util::SetFastPathEnabled(fast);
    exec::BlockExecutor::Global().SetThreads(threads);
    exec::Device dev(hw_);
    data::WorkloadConfig cfg;
    cfg.r_tuples = 96 * 1024;
    cfg.s_tuples = 1024;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    CHECK_OK(wl.status());
    partition::ColumnInput input = partition::ColumnInput::Of(wl->r);
    partition::RadixConfig radix{0, util::FloorLog2(fanout)};
    uint32_t blocks =
        hierarchical ? partition::HierarchicalRecommendedBlocks(
                           {}, hw_, dev.allocator().gpu_free(), fanout)
                     : hw_.gpu.num_sms;
    partition::PartitionLayout layout =
        CpuPrefixSum(dev, input, radix, blocks);
    auto out = dev.allocator().AllocateCpu(layout.padded_tuples() *
                                           sizeof(partition::Tuple));
    CHECK_OK(out.status());
    partition::PartitionRun run =
        p.PartitionColumns(dev, input, layout, *out, {});
    Outcome o;
    // Snapshot the partitioned slices only: the padding gaps between
    // slices are never written (host allocations are not zeroed, and the
    // fast path's block pool recycles storage), so their contents are
    // outside the result contract.
    const auto* rows = out->as<partition::Tuple>();
    for (uint32_t part = 0; part < layout.fanout(); ++part) {
      layout.ForEachSlice(part, [&](uint64_t begin, uint64_t count) {
        const auto* b = reinterpret_cast<const uint8_t*>(rows + begin);
        o.bytes.insert(o.bytes.end(), b,
                       b + count * sizeof(partition::Tuple));
      });
    }
    o.counters = run.record.counters;
    o.aux = run.flushes;
    o.elapsed = run.Elapsed();
    o.diags = DrainDiags(dev);
    EXPECT_TRUE(o.diags.empty()) << o.diags.front();
    return o;
  }

  /// Runs a full join and snapshots its result.
  template <typename JoinFn>
  Outcome RunJoin(JoinFn&& join, bool fast, uint32_t threads) {
    util::SetFastPathEnabled(fast);
    exec::BlockExecutor::Global().SetThreads(threads);
    exec::Device dev(hw_);
    data::WorkloadConfig cfg;
    cfg.r_tuples = 64 * 1024;
    cfg.s_tuples = 64 * 1024;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    CHECK_OK(wl.status());
    auto run = join(dev, wl->r, wl->s);
    CHECK_OK(run.status());
    Outcome o;
    o.counters = run->totals;
    o.aux = run->matches;
    o.checksum = run->checksum;
    o.elapsed = run->elapsed;
    o.diags = DrainDiags(dev);
    EXPECT_TRUE(o.diags.empty()) << o.diags.front();
    return o;
  }

  /// Cross-product comparison: the per-tuple path at 1 thread is the
  /// reference; the batched path and every thread count must match it.
  template <typename RunFn>
  void ExpectModeAndThreadInvariant(RunFn&& run, const char* what) {
    const Outcome ref = run(/*fast=*/false, /*threads=*/1);
    ExpectSameOutcome(ref, run(false, 8), (std::string(what) + " slow@8").c_str());
    ExpectSameOutcome(ref, run(true, 1), (std::string(what) + " fast@1").c_str());
    ExpectSameOutcome(ref, run(true, 8), (std::string(what) + " fast@8").c_str());
  }

  sim::HwSpec hw_;
};

TEST_F(FastPathTest, SharedPartitionerBitIdentical) {
  partition::SharedPartitioner shared;
  ExpectModeAndThreadInvariant(
      [&](bool fast, uint32_t threads) {
        return RunPartition(shared, /*hierarchical=*/false, /*fanout=*/64,
                            fast, threads);
      },
      "Shared");
}

TEST_F(FastPathTest, HierarchicalPartitionerBitIdentical) {
  partition::HierarchicalPartitioner hier;
  ExpectModeAndThreadInvariant(
      [&](bool fast, uint32_t threads) {
        return RunPartition(hier, /*hierarchical=*/true, /*fanout=*/128,
                            fast, threads);
      },
      "Hierarchical");
}

TEST_F(FastPathTest, TritonJoinBitIdentical) {
  ExpectModeAndThreadInvariant(
      [&](bool fast, uint32_t threads) {
        return RunJoin(
            [](exec::Device& dev, const data::Relation& r,
               const data::Relation& s) {
              return core::TritonJoin(
                         {.scheme = join::HashScheme::kBucketChaining})
                  .Run(dev, r, s);
            },
            fast, threads);
      },
      "TritonJoin");
}

TEST_F(FastPathTest, CpuRadixJoinBitIdentical) {
  ExpectModeAndThreadInvariant(
      [&](bool fast, uint32_t threads) {
        return RunJoin(
            [](exec::Device& dev, const data::Relation& r,
               const data::Relation& s) {
              return join::CpuRadixJoin(
                         {.scheme = join::HashScheme::kBucketChaining})
                  .Run(dev, r, s);
            },
            fast, threads);
      },
      "CpuRadixJoin");
}

TEST_F(FastPathTest, TritonJoinUncachedBitIdentical) {
  // No GPU cache: every pair spills, so the second-pass prefix sum also
  // stages the pair into GPU memory.
  ExpectModeAndThreadInvariant(
      [&](bool fast, uint32_t threads) {
        return RunJoin(
            [](exec::Device& dev, const data::Relation& r,
               const data::Relation& s) {
              return core::TritonJoin({.cache_bytes = 0}).Run(dev, r, s);
            },
            fast, threads);
      },
      "TritonJoin uncached");
}

TEST_F(FastPathTest, CoProcessSchedulerMidSplitBitIdentical) {
  ExpectModeAndThreadInvariant(
      [&](bool fast, uint32_t threads) {
        return RunJoin(
            [](exec::Device& dev, const data::Relation& r,
               const data::Relation& s) {
              return sched::CoProcessScheduler({.split_ratio = 0.5})
                  .Run(dev, r, s);
            },
            fast, threads);
      },
      "CoProcessScheduler");
}

TEST_F(FastPathTest, CpuPartitionedJoinMaterializedBitIdentical) {
  ExpectModeAndThreadInvariant(
      [&](bool fast, uint32_t threads) {
        return RunJoin(
            [](exec::Device& dev, const data::Relation& r,
               const data::Relation& s) {
              return join::CpuPartitionedJoin(
                         {.result_mode = join::ResultMode::kMaterialize})
                  .Run(dev, r, s);
            },
            fast, threads);
      },
      "CpuPartitionedJoin");
}

// Negative case: a kernel whose accounted flush overruns its allocation
// extent mid-run, with the functional stores issued the way each mode's
// partitioner inner loop issues them (bulk StoreRun vs per-tuple Store).
// The sanitizer must report the same violation, with the same provenance
// and message, in both modes and at both thread counts.
TEST_F(FastPathTest, MidRunOutOfBoundsStoreCaughtIdenticallyInBothModes) {
  auto run = [&](bool fast, uint32_t threads) {
    util::SetFastPathEnabled(fast);
    exec::BlockExecutor::Global().SetThreads(threads);
    exec::Device dev(hw_);
    auto buf = dev.allocator().AllocateCpu(1024);
    CHECK_OK(buf.status());
    const uint64_t tuples[2] = {7, 11};
    dev.Launch({.name = "oob"}, [&](exec::KernelContext& ctx) {
      ctx.SetSanitizerBlock(3);
      ctx.SetSanitizerFlushSite(/*warp=*/2, /*partition=*/5);
      // In-bounds functional stores, issued as the active mode would.
      if (util::FastPathEnabled()) {
        ctx.StoreRun(*buf, 0, tuples, 2);
      } else {
        ctx.Store(*buf, 0, tuples[0]);
        ctx.Store(*buf, 1, tuples[1]);
      }
      // Accounted flush that covers the stores but runs 24 B past the
      // extent — the cursor-overrun shape AccountFlush would produce.
      ctx.WriteNoTlb(*buf, buf->size() - 16, 40, /*random=*/true);
      ctx.WriteNoTlb(*buf, 0, 16, /*random=*/true);
      ctx.AddTuples(2);
      ctx.Charge(2);
    });
    Outcome o;
    o.bytes.assign(buf->data(), buf->data() + 16);
    o.diags = DrainDiags(dev);
    return o;
  };
  const Outcome ref = run(false, 1);
  ASSERT_EQ(ref.diags.size(), 1u);
  EXPECT_NE(ref.diags[0].find("past extent"), std::string::npos)
      << ref.diags[0];
  ExpectSameOutcome(ref, run(false, 8), "oob slow@8");
  ExpectSameOutcome(ref, run(true, 1), "oob fast@1");
  ExpectSameOutcome(ref, run(true, 8), "oob fast@8");
}

}  // namespace
}  // namespace triton
