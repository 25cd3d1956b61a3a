// Co-processing scheduler tests: backend-oracle equality at the split
// extremes, bit-identical results and counters at any thread count, the
// seeded-deterministic adaptive trajectory, the bounded staging-queue
// pipeline model, the derived split read off pair 0's own GPU kernels, and
// the CPU radix join's closed-form prediction against the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/triton_join.h"
#include "core/triton_pipeline.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "exec/block_executor.h"
#include "exec/device.h"
#include "join/common.h"
#include "join/cpu_radix_join.h"
#include "sched/coprocess_scheduler.h"
#include "sim/hw_spec.h"

namespace triton::sched {
namespace {

/// Scoped thread-count override; restores the previous pool size.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(uint32_t threads)
      : prev_(exec::BlockExecutor::Global().threads()) {
    exec::BlockExecutor::Global().SetThreads(threads);
  }
  ~ThreadsGuard() { exec::BlockExecutor::Global().SetThreads(prev_); }

 private:
  uint32_t prev_;
};

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

class CoProcessTest : public ::testing::Test {
 protected:
  void SetUp() override { hw_ = sim::HwSpec::Ac922NvLink().Scaled(64); }

  data::Workload MakeWorkload(exec::Device& dev, uint64_t r, uint64_t s,
                              uint64_t seed = 42) {
    data::WorkloadConfig cfg;
    cfg.r_tuples = r;
    cfg.s_tuples = s;
    cfg.seed = seed;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    CHECK_OK(wl.status());
    return std::move(wl).value();
  }

  sim::HwSpec hw_;
};

TEST_F(CoProcessTest, ParseBackendRoundTrips) {
  for (exec::Backend b : {exec::Backend::kCpu, exec::Backend::kGpu,
                          exec::Backend::kHybrid}) {
    auto parsed = exec::ParseBackend(exec::BackendName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), b);
  }
  EXPECT_FALSE(exec::ParseBackend("tpu").ok());
}

TEST_F(CoProcessTest, AllGpuSplitMatchesOracle) {
  exec::Device dev(hw_);
  auto wl = MakeWorkload(dev, 200000, 200000);
  uint64_t ref = join::ReferenceChecksum(wl.r, wl.s);
  CoProcessScheduler hybrid({.split_ratio = 0.0});
  auto run = hybrid.Run(dev, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 200000u);
  EXPECT_EQ(run->checksum, ref);
  EXPECT_EQ(hybrid.stats().cpu_pairs, 0u);
  EXPECT_EQ(hybrid.stats().gpu_pairs, hybrid.stats().pairs_total);
}

TEST_F(CoProcessTest, AllCpuSplitMatchesOracle) {
  exec::Device dev(hw_);
  auto wl = MakeWorkload(dev, 200000, 200000);
  exec::Device cpu_dev(hw_);
  auto cpu_wl = MakeWorkload(cpu_dev, 200000, 200000);
  join::CpuRadixJoin cpu({.result_mode = join::ResultMode::kAggregate});
  auto oracle = cpu.Run(cpu_dev, cpu_wl.r, cpu_wl.s);
  ASSERT_TRUE(oracle.ok());

  CoProcessScheduler hybrid({.split_ratio = 1.0});
  auto run = hybrid.Run(dev, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, oracle->matches);
  EXPECT_EQ(run->checksum, oracle->checksum);
  EXPECT_EQ(hybrid.stats().gpu_pairs, 0u);
  EXPECT_EQ(hybrid.stats().cpu_pairs, hybrid.stats().pairs_total);
}

TEST_F(CoProcessTest, MidSplitMatchesOracleAndUsesBothBackends) {
  exec::Device dev(hw_);
  auto wl = MakeWorkload(dev, 300000, 300000);
  uint64_t ref = join::ReferenceChecksum(wl.r, wl.s);
  CoProcessScheduler hybrid({.split_ratio = 0.5});
  auto run = hybrid.Run(dev, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 300000u);
  EXPECT_EQ(run->checksum, ref);
  EXPECT_GT(hybrid.stats().cpu_pairs, 0u);
  EXPECT_GT(hybrid.stats().gpu_pairs, 0u);
  // Pair granularity limits precision; the realized share must track the
  // requested one.
  EXPECT_NEAR(hybrid.stats().final_cpu_fraction, 0.5, 0.15);
}

TEST_F(CoProcessTest, MaterializeAgreesWithAggregate) {
  for (join::ResultMode mode : {join::ResultMode::kAggregate,
                                join::ResultMode::kMaterialize}) {
    exec::Device dev(hw_);
    auto wl = MakeWorkload(dev, 150000, 150000);
    CoProcessConfig cfg;
    cfg.result_mode = mode;
    cfg.split_ratio = 0.4;
    CoProcessScheduler hybrid(cfg);
    auto run = hybrid.Run(dev, wl.r, wl.s);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->matches, 150000u);
    EXPECT_EQ(run->checksum, join::ReferenceChecksum(wl.r, wl.s));
  }
}

// Repeated build keys make more matches than the |S|-row result holds.
// At a mid split the GPU pairs' join kernel or the CPU pairs' reduction
// meets the end of the result first; all-CPU only the reduction does.
// Either refuses instead of writing past the buffer.
TEST_F(CoProcessTest, RefusesResultPastProbeRows) {
  for (double split : {0.5, 1.0}) {
    SCOPED_TRACE(testing::Message() << "split " << split);
    exec::Device dev(hw_);
    auto wl = MakeWorkload(dev, 40000, 40000);
    RepeatBuildKeys(wl);
    CoProcessScheduler mat({.split_ratio = split});
    auto m = mat.Run(dev, wl.r, wl.s);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), util::StatusCode::kResourceExhausted)
        << m.status().ToString();
    // Aggregating the same input is exact.
    CoProcessScheduler agg(
        {.result_mode = join::ResultMode::kAggregate, .split_ratio = split});
    auto a = agg.Run(dev, wl.r, wl.s);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(a->matches, 2 * wl.s.rows());
    EXPECT_EQ(a->checksum, join::ReferenceChecksum(wl.r, wl.s));
  }
}

TEST_F(CoProcessTest, OutOfCorePairsStageThroughBoundedQueue) {
  // State twice the (scaled) GPU memory: pass-1 output spills, so GPU
  // pairs must stream through the staging queue.
  uint64_t n = hw_.gpu_mem.capacity / sizeof(partition::Tuple);
  exec::Device dev(hw_);
  auto wl = MakeWorkload(dev, n, n, /*seed=*/5);
  CoProcessConfig cfg;
  cfg.result_mode = join::ResultMode::kAggregate;
  cfg.split_ratio = 0.3;
  CoProcessScheduler hybrid(cfg);
  auto run = hybrid.Run(dev, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, n);
  EXPECT_GT(hybrid.stats().spilled_bytes, 0u);
  EXPECT_LT(hybrid.stats().cached_fraction, 1.0);
  EXPECT_GT(run->totals.link_read_payload, 0u);
}

TEST_F(CoProcessTest, BitIdenticalAcrossThreadCounts) {
  struct Observed {
    join::JoinRun run;
    CoProcessStats stats;
  };
  auto observe = [&](uint32_t threads) {
    ThreadsGuard guard(threads);
    exec::Device dev(hw_);
    auto wl = MakeWorkload(dev, 250000, 250000);
    CoProcessScheduler hybrid({.adaptive = true});
    auto run = hybrid.Run(dev, wl.r, wl.s);
    CHECK_OK(run.status());
    return Observed{std::move(run).value(), hybrid.stats()};
  };
  Observed base = observe(1);
  ASSERT_GT(base.stats.waves.size(), 1u);
  for (uint32_t threads : {2u, 8u}) {
    Observed got = observe(threads);
    EXPECT_EQ(got.run.matches, base.run.matches) << threads;
    EXPECT_EQ(got.run.checksum, base.run.checksum) << threads;
    // Modeled time and every counter must be bit-identical, not just close:
    // the PR 2/PR 4 determinism contract extends to the scheduler.
    EXPECT_EQ(got.run.elapsed, base.run.elapsed) << threads;
    EXPECT_TRUE(got.run.totals == base.run.totals) << threads;
    EXPECT_EQ(got.stats.cpu_pairs, base.stats.cpu_pairs) << threads;
    EXPECT_EQ(got.stats.initial_cpu_fraction, base.stats.initial_cpu_fraction);
    EXPECT_EQ(got.stats.final_cpu_fraction, base.stats.final_cpu_fraction);
    ASSERT_EQ(got.stats.waves.size(), base.stats.waves.size());
    for (size_t w = 0; w < base.stats.waves.size(); ++w) {
      EXPECT_EQ(got.stats.waves[w].cpu_pairs, base.stats.waves[w].cpu_pairs);
      EXPECT_EQ(got.stats.waves[w].target_cpu_fraction,
                base.stats.waves[w].target_cpu_fraction);
      EXPECT_EQ(got.stats.waves[w].cpu_seconds,
                base.stats.waves[w].cpu_seconds);
      EXPECT_EQ(got.stats.waves[w].gpu_seconds,
                base.stats.waves[w].gpu_seconds);
    }
  }
}

TEST_F(CoProcessTest, AdaptiveTrajectoryIsSeededDeterministic) {
  auto observe = [&](uint64_t seed) {
    exec::Device dev(hw_);
    auto wl = MakeWorkload(dev, 250000, 250000);
    CoProcessConfig cfg;
    cfg.adaptive = true;
    cfg.seed = seed;
    CoProcessScheduler hybrid(cfg);
    auto run = hybrid.Run(dev, wl.r, wl.s);
    CHECK_OK(run.status());
    return std::make_pair(std::move(run).value(), hybrid.stats());
  };
  auto [run_a, stats_a] = observe(123);
  auto [run_b, stats_b] = observe(123);
  EXPECT_EQ(run_a.checksum, run_b.checksum);
  EXPECT_EQ(run_a.elapsed, run_b.elapsed);
  ASSERT_EQ(stats_a.waves.size(), stats_b.waves.size());
  for (size_t w = 0; w < stats_a.waves.size(); ++w) {
    EXPECT_EQ(stats_a.waves[w].target_cpu_fraction,
              stats_b.waves[w].target_cpu_fraction);
  }
  // Adaptive rebalancing actually moves the share between waves.
  ASSERT_GT(stats_a.waves.size(), 1u);
  EXPECT_NE(stats_a.waves.front().target_cpu_fraction,
            stats_a.waves.back().target_cpu_fraction);
}

TEST_F(CoProcessTest, DeriveBitsKeepsMorselGranularityAndPairBudget) {
  for (uint64_t n : {100000ull, 1000000ull, 10000000ull}) {
    uint32_t b1 = 0, b2 = 0;
    CoProcessScheduler::DeriveBits(hw_, n, n, &b1, &b2);
    EXPECT_GE(b1, CoProcessScheduler::kMinPairBits) << n;
    EXPECT_GE(b2, 1u) << n;
    // A pair (with the pipeline's double buffering) fits the GPU budget.
    uint64_t pair_bytes = (2 * n * sizeof(partition::Tuple)) >> b1;
    EXPECT_LE(pair_bytes * 4, hw_.gpu_mem.capacity / 2) << n;
    // Same total refinement depth as the Triton join: refined partitions
    // stay ~1024 tuples, so per-pair scheduling cost is comparable.
    uint32_t t1 = 0, t2 = 0;
    core::TritonJoin::DeriveBits(hw_, n, n, &t1, &t2);
    EXPECT_GE(b1 + b2 + 1, t1 + t2) << n;
    EXPECT_LE(b1 + b2, t1 + t2 + 1) << n;
  }
}

// --- Bounded staging-queue pipeline model ---

TEST(BoundedPipelineTest, EmptyAndSinglePair) {
  EXPECT_EQ(BoundedPipelineSeconds({}, {}, 2), 0.0);
  EXPECT_DOUBLE_EQ(BoundedPipelineSeconds({2.0}, {3.0}, 2), 5.0);
}

TEST(BoundedPipelineTest, DepthOneSerializesSlotReuse) {
  // With a single slot, pair 1's copy-in waits for pair 0's compute.
  EXPECT_DOUBLE_EQ(BoundedPipelineSeconds({1.0, 1.0}, {1.0, 1.0}, 1), 4.0);
  // With two slots the copy-in overlaps pair 0's compute.
  EXPECT_DOUBLE_EQ(BoundedPipelineSeconds({1.0, 1.0}, {1.0, 1.0}, 2), 3.0);
}

TEST(BoundedPipelineTest, DeepQueueConvergesToLaneMax) {
  // Long balanced pipeline: elapsed approaches max(sum bw, sum compute)
  // plus the fill bubble of one stage.
  std::vector<double> bw(64, 1.0), comp(64, 2.0);
  double t = BoundedPipelineSeconds(bw, comp, 4);
  EXPECT_GE(t, 128.0);
  EXPECT_LE(t, 128.0 + 1.0 + 1e-9);
}

// --- The derived split: pair 0's GPU rate against the CPU pair cost ---

/// Kernels of the front: the CPU prefix sums, then pass 1 of R and of S.
constexpr size_t kFrontKernels = 4;
/// Kernels of one GPU pair, in launch order (core::JoinPair).
const std::vector<std::string> kPairKernels = {
    "prefix_sum2", "prefix_sum2", "partition2", "partition2", "sched", "join"};

TEST_F(CoProcessTest, DerivedSplitReadsTheGpuRateOffPairZero) {
  exec::Device dev(hw_);
  auto wl = MakeWorkload(dev, 400000, 400000);
  CoProcessScheduler hybrid({.result_mode = join::ResultMode::kAggregate});
  auto run = hybrid.Run(dev, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 400000u);
  const CoProcessStats& st = hybrid.stats();
  ASSERT_GT(st.cpu_pairs, 0u);
  ASSERT_GT(st.gpu_pairs, 0u);

  // Pair 0 runs on the GPU right after the front, and only once: each GPU
  // pair launches two prefix_sum2.
  ASSERT_GT(run->phases.size(), kFrontKernels + kPairKernels.size());
  const auto prefix_sums = std::count_if(
      run->phases.begin(), run->phases.end(),
      [](const exec::KernelRecord& rec) { return rec.name == "prefix_sum2"; });
  EXPECT_EQ(prefix_sums, 2 * static_cast<int64_t>(st.gpu_pairs));

  // GPU rate: pair 0's tuples over the slower lane of its six kernels.
  core::Lanes lanes;
  uint64_t pair0_tuples = 0;
  for (size_t k = 0; k < kPairKernels.size(); ++k) {
    const exec::KernelRecord& rec = run->phases[kFrontKernels + k];
    ASSERT_EQ(rec.name, kPairKernels[k]);
    lanes.Add(rec.time);
    if (rec.name == "prefix_sum2") pair0_tuples += rec.counters.tuples;
  }
  const double gpu_rate =
      static_cast<double>(pair0_tuples) / std::max(lanes.bw, lanes.comp);

  // CPU rate: a CPU pair's tuples over its charged seconds. The state is
  // all GPU-cached, so the pair reads nothing from CPU memory and its cost
  // is link + sub-partition + join, linear in the pair's size.
  ASSERT_EQ(st.cached_fraction, 1.0);
  auto cpu_pair = std::find_if(
      run->phases.begin(), run->phases.end(),
      [](const exec::KernelRecord& rec) {
        return rec.name == "coproc_cpu_pair";
      });
  ASSERT_NE(cpu_pair, run->phases.end());
  const double cpu_rate =
      static_cast<double>(cpu_pair->counters.tuples) /
      (cpu_pair->time.link + cpu_pair->time.cpu_mem + cpu_pair->time.compute);

  EXPECT_NEAR(st.initial_cpu_fraction,
              std::clamp(cpu_rate / (cpu_rate + gpu_rate), 0.0, 0.9), 1e-12);
}

TEST_F(CoProcessTest, PredictedGpuSecondsTracksAllGpuSplit) {
  // Inputs of 1/20, 1/2 and 2x GPU memory: the last spills pass-1 state.
  for (uint64_t n : {uint64_t{400000}, uint64_t{4194304}, uint64_t{16777216}}) {
    auto seconds = [&](double split_ratio, double* predicted_gpu) {
      exec::Device dev(hw_);
      auto wl = MakeWorkload(dev, n, n);
      CoProcessScheduler hybrid({.result_mode = join::ResultMode::kAggregate,
                                 .split_ratio = split_ratio});
      auto run = hybrid.Run(dev, wl.r, wl.s);
      CHECK_OK(run.status());
      if (predicted_gpu != nullptr) {
        *predicted_gpu = hybrid.stats().predicted_gpu_seconds;
      }
      return run->elapsed;
    };
    double predicted = 0.0;
    seconds(-1.0, &predicted);
    const double all_gpu = seconds(0.0, nullptr);
    EXPECT_NEAR(predicted, all_gpu, 0.02 * all_gpu) << n;
  }
}

// --- The CPU radix join's closed form against the engine ---

TEST_F(CoProcessTest, CpuPredictorTracksCpuRadixJoin) {
  // The predictor calls the engine's own rate functions, so it equals the
  // engine's modeled time for |S| = |R| and |S| != |R| under both schemes.
  struct Shape {
    uint64_t r, s;
  };
  for (Shape shape : {Shape{400000, 400000}, Shape{100000, 300007}}) {
    for (join::HashScheme scheme :
         {join::HashScheme::kBucketChaining, join::HashScheme::kPerfect}) {
      exec::Device dev(hw_);
      auto wl = MakeWorkload(dev, shape.r, shape.s);
      join::CpuRadixJoin cpu(
          {.scheme = scheme, .result_mode = join::ResultMode::kAggregate});
      auto run = cpu.Run(dev, wl.r, wl.s);
      ASSERT_TRUE(run.ok());
      EXPECT_DOUBLE_EQ(
          join::PredictCpuRadixSeconds(hw_, shape.r, shape.s, scheme),
          run->elapsed)
          << shape.r << " x " << shape.s << " scheme "
          << static_cast<int>(scheme);
    }
  }
}

}  // namespace
}  // namespace triton::sched
