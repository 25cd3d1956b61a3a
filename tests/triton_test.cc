#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/triton_join.h"
#include "data/generator.h"
#include "exec/device.h"
#include "join/common.h"
#include "partition/linear.h"
#include "partition/shared.h"
#include "partition/standard.h"
#include "sim/hw_spec.h"
#include "util/units.h"

namespace triton::core {
namespace {

/// Folds a PK/FK workload so every build key appears twice: key k becomes
/// (k + 1) / 2 on both sides, so each probe tuple matches two build tuples
/// and a join makes twice as many matches as its |S|-row result holds.
void RepeatBuildKeys(data::Workload& wl) {
  for (uint64_t i = 0; i < wl.r.rows(); ++i) {
    wl.r.keys()[i] = (wl.r.keys()[i] + 1) / 2;
  }
  for (uint64_t j = 0; j < wl.s.rows(); ++j) {
    wl.s.keys()[j] = (wl.s.keys()[j] + 1) / 2;
  }
}

class TritonJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hw_ = sim::HwSpec::Ac922NvLink().Scaled(64);
    dev_ = std::make_unique<exec::Device>(hw_);
  }

  data::Workload MakeWorkload(uint64_t r, uint64_t s, uint64_t seed = 42) {
    data::WorkloadConfig cfg;
    cfg.r_tuples = r;
    cfg.s_tuples = s;
    cfg.seed = seed;
    auto wl = data::GenerateWorkload(dev_->allocator(), cfg);
    CHECK_OK(wl.status());
    return std::move(wl).value();
  }

  sim::HwSpec hw_;
  std::unique_ptr<exec::Device> dev_;
};

TEST_F(TritonJoinTest, ExactResultOnSmallWorkload) {
  auto wl = MakeWorkload(30000, 90000);
  uint64_t ref = join::ReferenceChecksum(wl.r, wl.s);
  TritonJoin join;
  auto run = join.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 90000u);
  EXPECT_EQ(run->checksum, ref);
  EXPECT_GT(run->elapsed, 0.0);
}

TEST_F(TritonJoinTest, ExactResultOutOfCore) {
  // Data 2x the (scaled) GPU memory: the partitioned state must spill.
  uint64_t n = hw_.gpu_mem.capacity / sizeof(partition::Tuple);
  auto wl = MakeWorkload(n, n, /*seed=*/5);
  TritonJoin join({.result_mode = join::ResultMode::kAggregate});
  auto run = join.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, n);
  EXPECT_GT(join.stats().spilled_bytes, 0u);
  EXPECT_LT(join.stats().cached_fraction, 1.0);
}

// Repeated build keys make more matches than the |S|-row result holds:
// the join refuses to materialize them instead of writing past the buffer.
TEST_F(TritonJoinTest, RefusesResultPastProbeRows) {
  auto wl = MakeWorkload(40000, 40000);
  RepeatBuildKeys(wl);
  TritonJoin mat({.result_mode = join::ResultMode::kMaterialize});
  auto m = mat.Run(*dev_, wl.r, wl.s);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kResourceExhausted)
      << m.status().ToString();
  // Aggregating the same input is exact.
  TritonJoin agg({.result_mode = join::ResultMode::kAggregate});
  auto a = agg.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->matches, 2 * wl.s.rows());
  EXPECT_EQ(a->checksum, join::ReferenceChecksum(wl.r, wl.s));
}

// The SM count is an operator knob: more SMs than the GPU has are refused
// before anything is allocated, and the GPU's own count still joins.
TEST(TritonJoinSmsTest, RefusesMoreSmsThanTheGpuHas) {
  const sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(256);
  exec::Device dev(hw);
  data::WorkloadConfig cfg;
  cfg.r_tuples = 20000;
  cfg.s_tuples = 60000;
  auto wl = data::GenerateWorkload(dev.allocator(), cfg);
  ASSERT_TRUE(wl.ok());
  const uint32_t num_sms = hw.gpu.num_sms;
  for (uint32_t sms : {num_sms + 1, 200u}) {
    const uint64_t gpu_used = dev.allocator().gpu_used();
    const uint64_t cpu_used = dev.allocator().cpu_used();
    auto run = TritonJoin({.sms = sms}).Run(dev, wl->r, wl->s);
    ASSERT_FALSE(run.ok()) << "sms " << sms;
    EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().ToString().find(std::to_string(sms)),
              std::string::npos)
        << run.status().ToString();
    EXPECT_NE(run.status().ToString().find(std::to_string(num_sms)),
              std::string::npos)
        << run.status().ToString();
    EXPECT_EQ(dev.allocator().gpu_used(), gpu_used);
    EXPECT_EQ(dev.allocator().cpu_used(), cpu_used);
  }
  auto run = TritonJoin({.sms = num_sms}).Run(dev, wl->r, wl->s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 60000u);
  EXPECT_EQ(run->checksum, join::ReferenceChecksum(wl->r, wl->s));
}

TEST_F(TritonJoinTest, InCoreWorkloadIsFullyCached) {
  auto wl = MakeWorkload(100000, 100000);
  TritonJoin join;
  auto run = join.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(join.stats().cached_fraction, 1.0);
  EXPECT_EQ(join.stats().spilled_bytes, 0u);
}

TEST_F(TritonJoinTest, DerivedBitsMatchPaperRanges) {
  sim::HwSpec full = sim::HwSpec::Ac922NvLink();
  uint32_t b1 = 0, b2 = 0;
  // 2048 M tuples: the paper's first pass uses ~10 bits, second pass 9.
  TritonJoin::DeriveBits(full, 2048ull << 20, 2048ull << 20, &b1, &b2);
  EXPECT_EQ(b2, 9u);
  EXPECT_GE(b1, 9u);
  EXPECT_LE(b1, 12u);
  // 128 M tuples: ~6-8 first-pass bits.
  TritonJoin::DeriveBits(full, 128ull << 20, 128ull << 20, &b1, &b2);
  EXPECT_GE(b1, 5u);
  EXPECT_LE(b1, 9u);
}

TEST_F(TritonJoinTest, ChecksumStableAcrossConfigurations) {
  auto wl = MakeWorkload(40000, 120000, /*seed=*/11);
  uint64_t ref = join::ReferenceChecksum(wl.r, wl.s);
  for (bool gpu_ps : {false, true}) {
    for (bool overlap : {false, true}) {
      TritonJoin join({.gpu_prefix_sum = gpu_ps, .overlap = overlap});
      auto run = join.Run(*dev_, wl.r, wl.s);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->matches, 120000u) << gpu_ps << overlap;
      EXPECT_EQ(run->checksum, ref) << gpu_ps << overlap;
    }
  }
}

TEST_F(TritonJoinTest, PerfectHashingWithinTwoPercentOfBucketChaining) {
  auto wl = MakeWorkload(200000, 200000);
  TritonJoin chain({.scheme = join::HashScheme::kBucketChaining});
  TritonJoin perfect({.scheme = join::HashScheme::kPerfect});
  auto c = chain.Run(*dev_, wl.r, wl.s);
  auto p = perfect.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(c->checksum, p->checksum);
  // The paper: hashing scheme has only a small impact on partitioned
  // joins (0-2%; allow a bit more slack at small scale).
  EXPECT_NEAR(c->elapsed / p->elapsed, 1.0, 0.10);
}

TEST_F(TritonJoinTest, OverlapReducesElapsedTime) {
  // Overlap pays off when the second pass streams spilled state over the
  // interconnect while the join computes; disable the cache to force that.
  uint64_t n = hw_.gpu_mem.capacity / sizeof(partition::Tuple);
  auto wl = MakeWorkload(n, n);
  TritonJoin with({.result_mode = join::ResultMode::kAggregate,
                   .cache_bytes = 0, .overlap = true});
  TritonJoin without({.result_mode = join::ResultMode::kAggregate,
                      .cache_bytes = 0, .overlap = false});
  auto a = with.Run(*dev_, wl.r, wl.s);
  auto b = without.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->checksum, b->checksum);
  EXPECT_LT(a->elapsed, b->elapsed);
}

TEST_F(TritonJoinTest, CacheImprovesOutOfCoreThroughput) {
  uint64_t n = hw_.gpu_mem.capacity / sizeof(partition::Tuple);
  auto wl = MakeWorkload(n, n);
  TritonJoin cached({.result_mode = join::ResultMode::kAggregate});
  TritonJoin uncached({.result_mode = join::ResultMode::kAggregate,
                       .cache_bytes = 0});
  auto a = cached.Run(*dev_, wl.r, wl.s);
  auto b = uncached.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->checksum, b->checksum);
  EXPECT_GT(cached.stats().cached_fraction, 0.0);
  EXPECT_DOUBLE_EQ(uncached.stats().cached_fraction, 0.0);
  EXPECT_LT(a->elapsed, b->elapsed);
}

TEST_F(TritonJoinTest, AlternativePass1Partitioners) {
  auto wl = MakeWorkload(60000, 60000, /*seed=*/3);
  uint64_t ref = join::ReferenceChecksum(wl.r, wl.s);
  partition::StandardPartitioner standard;
  partition::LinearPartitioner linear;
  partition::SharedPartitioner shared;
  for (partition::GpuPartitioner* p :
       {static_cast<partition::GpuPartitioner*>(&standard),
        static_cast<partition::GpuPartitioner*>(&linear),
        static_cast<partition::GpuPartitioner*>(&shared)}) {
    TritonJoin join({.cache_bytes = 0, .pass1 = p});
    auto run = join.Run(*dev_, wl.r, wl.s);
    ASSERT_TRUE(run.ok()) << p->name();
    EXPECT_EQ(run->checksum, ref) << p->name();
  }
}

TEST_F(TritonJoinTest, HandlesSkewedBuildToProbeRatio) {
  // 1:32 ratio as in Figure 21's extreme point.
  auto wl = MakeWorkload(8000, 256000, /*seed=*/13);
  uint64_t ref = join::ReferenceChecksum(wl.r, wl.s);
  TritonJoin join;
  auto run = join.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->matches, 256000u);
  EXPECT_EQ(run->checksum, ref);
}

TEST_F(TritonJoinTest, ExactUnderHeavySkew) {
  // Zipf theta ~1: the hot partition far exceeds the scratchpad table, so
  // the join must fall back to chunked builds — and stay exact.
  data::WorkloadConfig cfg;
  cfg.r_tuples = 50000;
  cfg.s_tuples = 200000;
  cfg.zipf_theta = 1.05;
  auto wl = data::GenerateWorkload(dev_->allocator(), cfg);
  ASSERT_TRUE(wl.ok());
  uint64_t ref = join::ReferenceChecksum(wl->r, wl->s);
  TritonJoin join;
  auto run = join.Run(*dev_, wl->r, wl->s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->matches, 200000u);
  EXPECT_EQ(run->checksum, ref);
}

TEST_F(TritonJoinTest, PhaseBreakdownCoversAllKernels) {
  auto wl = MakeWorkload(50000, 50000);
  TritonJoin join;
  auto run = join.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->PhaseTime("prefix_sum1"), 0.0);
  EXPECT_GT(run->PhaseTime("partition1"), 0.0);
  EXPECT_GT(run->PhaseTime("prefix_sum2"), 0.0);
  EXPECT_GT(run->PhaseTime("partition2"), 0.0);
  EXPECT_GT(run->PhaseTime("sched"), 0.0);
  EXPECT_GT(run->PhaseTime("join"), 0.0);
}

}  // namespace
}  // namespace triton::core
