#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "data/generator.h"
#include "exec/device.h"
#include "join/common.h"
#include "join/cpu_partitioned_join.h"
#include "join/cpu_radix_join.h"
#include "join/no_partitioning_join.h"
#include "join/scratch_join.h"
#include "sim/hw_spec.h"
#include "util/status.h"
#include "util/units.h"

namespace triton::join {
namespace {

using util::kMiB;

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

class JoinTest : public ::testing::Test {
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

// --- No-partitioning join ---

class NpjSchemeTest : public JoinTest,
                      public ::testing::WithParamInterface<HashScheme> {};

TEST_P(NpjSchemeTest, FindsAllMatchesWithCorrectChecksum) {
  auto wl = MakeWorkload(20000, 60000);
  uint64_t ref = ReferenceChecksum(wl.r, wl.s);
  NoPartitioningJoin npj({.scheme = GetParam()});
  auto run = npj.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 60000u);
  EXPECT_EQ(run->checksum, ref);
  EXPECT_GT(run->elapsed, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, NpjSchemeTest,
                         ::testing::Values(HashScheme::kPerfect,
                                           HashScheme::kLinearProbing,
                                           HashScheme::kBucketChaining),
                         [](const auto& info) {
                           return HashSchemeName(info.param);
                         });

TEST_F(JoinTest, NpjTableBytesMatchPaperSizes) {
  // 2048 M tuples: perfect hashing 30.5 GiB, linear probing 64 GiB
  // (Section 6.2.2).
  uint64_t n = 2048ull << 20;
  EXPECT_EQ(NpjTableBytes(HashScheme::kPerfect, n), n * 16);
  EXPECT_EQ(NpjTableBytes(HashScheme::kLinearProbing, n), 2 * n * 16);  // 64 GiB
  double perfect_gib =
      static_cast<double>(NpjTableBytes(HashScheme::kPerfect, n)) /
      static_cast<double>(util::kGiB);
  EXPECT_NEAR(perfect_gib, 32.0, 0.5);
}

TEST_F(JoinTest, NpjInCoreIsFasterThanOutOfCore) {
  // Small table (fits GPU) vs table forced out of GPU memory.
  auto wl = MakeWorkload(50000, 200000);
  NoPartitioningJoin cached({.scheme = HashScheme::kPerfect});
  NoPartitioningJoin spilled(
      {.scheme = HashScheme::kPerfect, .cache_bytes = 0});
  auto fast = cached.Run(*dev_, wl.r, wl.s);
  auto slow = spilled.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->matches, slow->matches);
  EXPECT_LT(fast->elapsed, slow->elapsed);
}

TEST_F(JoinTest, NpjOutOfCoreLinearProbingCollapses) {
  // The paper's 2048 M proportions: the perfect-hashing table (30.5 GiB)
  // sits just inside the 32 GiB translation reach while linear probing's
  // doubled table (64 GiB) crosses it, so the IOMMU walker pool dominates
  // (Figure 13's 400x gap).
  uint64_t r_tuples =
      hw_.tlb.iotlb_coverage / sizeof(hash::Entry) * 95 / 100;
  auto wl = MakeWorkload(r_tuples, r_tuples);
  NoPartitioningJoin perfect({.scheme = HashScheme::kPerfect,
                              .result_mode = ResultMode::kAggregate});
  NoPartitioningJoin linear({.scheme = HashScheme::kLinearProbing,
                             .result_mode = ResultMode::kAggregate});
  auto p = perfect.Run(*dev_, wl.r, wl.s);
  auto l = linear.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_EQ(p->matches, l->matches);
  // Linear probing is dramatically slower out of core.
  EXPECT_GT(l->elapsed / p->elapsed, 5.0);
  // And issues far more IOMMU requests per tuple.
  EXPECT_GT(l->totals.IommuRequestsPerTuple(),
            4 * p->totals.IommuRequestsPerTuple());
}

TEST_F(JoinTest, NpjAggregateSkipsResultTraffic) {
  auto wl = MakeWorkload(10000, 30000);
  NoPartitioningJoin mat({.result_mode = ResultMode::kMaterialize});
  NoPartitioningJoin agg({.result_mode = ResultMode::kAggregate});
  auto m = mat.Run(*dev_, wl.r, wl.s);
  auto a = agg.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(m->checksum, a->checksum);
  EXPECT_GT(m->totals.link_write_payload, a->totals.link_write_payload);
}

// --- NPJ input contract ---

/// A relation holding `keys`, payload 3 * row + 1.
data::Relation MakeRelation(mem::Allocator& alloc,
                            const std::vector<data::Key>& keys) {
  auto rel = data::Relation::AllocateCpu(alloc, keys.size());
  CHECK_OK(rel.status());
  for (uint64_t i = 0; i < keys.size(); ++i) {
    rel->keys()[i] = keys[i];
    rel->payload(0)[i] = static_cast<data::Value>(3 * i + 1);
  }
  return std::move(rel).value();
}

TEST_F(JoinTest, NpjBucketChainingRefusesResultPastProbeRows) {
  // R = S = 1024 tuples of key 7: 2^20 matches, far more than the
  // |S|-row result buffer holds.
  const std::vector<data::Key> sevens(1024, 7);
  data::Relation r = MakeRelation(dev_->allocator(), sevens);
  data::Relation s = MakeRelation(dev_->allocator(), sevens);
  NoPartitioningJoin mat({.scheme = HashScheme::kBucketChaining,
                          .result_mode = ResultMode::kMaterialize});
  auto m = mat.Run(*dev_, r, s);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kResourceExhausted)
      << m.status().ToString();
  // Aggregating the same input is exact.
  NoPartitioningJoin agg({.scheme = HashScheme::kBucketChaining,
                          .result_mode = ResultMode::kAggregate});
  auto a = agg.Run(*dev_, r, s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->matches, 1024u * 1024u);
  EXPECT_EQ(a->checksum, ReferenceChecksum(r, s));
}

TEST_F(JoinTest, NpjPerfectRefusesBuildKeyOutsideOneToR) {
  const uint64_t n = 5000;
  std::vector<data::Key> dense(n);
  for (uint64_t i = 0; i < n; ++i) dense[i] = static_cast<data::Key>(i + 1);
  data::Relation s = MakeRelation(dev_->allocator(), dense);
  for (data::Key bad : {data::Key{0}, data::Key{-3},
                        static_cast<data::Key>(n + 1),
                        std::numeric_limits<data::Key>::max()}) {
    std::vector<data::Key> keys = dense;
    keys[n / 2] = bad;
    data::Relation r = MakeRelation(dev_->allocator(), keys);
    for (ResultMode mode : {ResultMode::kMaterialize, ResultMode::kAggregate}) {
      NoPartitioningJoin npj(
          {.scheme = HashScheme::kPerfect, .result_mode = mode});
      auto run = npj.Run(*dev_, r, s);
      ASSERT_FALSE(run.ok()) << "build key " << bad;
      EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument)
          << run.status().ToString();
    }
  }
}

class NpjUniqueKeySchemeTest
    : public JoinTest,
      public ::testing::WithParamInterface<HashScheme> {};

TEST_P(NpjUniqueKeySchemeTest, RefusesRepeatedBuildKeys) {
  // R holds 1..512 twice: every probe key matches two build tuples, so
  // the reference answer is 1024 matches. A perfect slot keeps one of
  // them and a linear probe stops at the first.
  std::vector<data::Key> r_keys, s_keys;
  for (data::Key k = 1; k <= 512; ++k) s_keys.push_back(k);
  r_keys = s_keys;
  r_keys.insert(r_keys.end(), s_keys.begin(), s_keys.end());
  data::Relation r = MakeRelation(dev_->allocator(), r_keys);
  data::Relation s = MakeRelation(dev_->allocator(), s_keys);
  for (ResultMode mode : {ResultMode::kMaterialize, ResultMode::kAggregate}) {
    NoPartitioningJoin npj({.scheme = GetParam(), .result_mode = mode});
    auto run = npj.Run(*dev_, r, s);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument)
        << run.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, NpjUniqueKeySchemeTest,
                         ::testing::Values(HashScheme::kPerfect,
                                           HashScheme::kLinearProbing),
                         [](const auto& info) {
                           return HashSchemeName(info.param);
                         });

TEST_F(JoinTest, NpjBucketChainingJoinsRepeatedBuildKeys) {
  std::vector<data::Key> r_keys, s_keys;
  for (data::Key k = 1; k <= 512; ++k) s_keys.push_back(k);
  r_keys = s_keys;
  r_keys.insert(r_keys.end(), s_keys.begin(), s_keys.end());
  data::Relation r = MakeRelation(dev_->allocator(), r_keys);
  data::Relation s = MakeRelation(dev_->allocator(), s_keys);
  NoPartitioningJoin npj({.scheme = HashScheme::kBucketChaining,
                          .result_mode = ResultMode::kAggregate});
  auto run = npj.Run(*dev_, r, s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 1024u);
  EXPECT_EQ(run->checksum, ReferenceChecksum(r, s));
}

TEST_F(JoinTest, NpjLinearProbingKeyZero) {
  // Key 0 marks an empty linear-probing slot: a probe for it must not
  // match one, and a build key 0 is refused.
  std::vector<data::Key> keys = {1, 2, 3, 4};
  data::Relation r = MakeRelation(dev_->allocator(), keys);
  data::Relation s = MakeRelation(dev_->allocator(), {0, 2, 0, 5});
  NoPartitioningJoin npj({.scheme = HashScheme::kLinearProbing});
  auto run = npj.Run(*dev_, r, s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 1u);
  EXPECT_EQ(run->checksum, ReferenceChecksum(r, s));
  auto refused = npj.Run(*dev_, s, r);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kInvalidArgument)
      << refused.status().ToString();
}

// --- Scratch joiner ---

TEST_F(JoinTest, ScratchJoinerChunksOversizedBuildSides) {
  // A build range far beyond the scratchpad capacity must still produce
  // exact results via chunked builds.
  auto buf = dev_->allocator().AllocateCpu(40000 * sizeof(hash::Entry));
  ASSERT_TRUE(buf.ok());
  auto* rows = buf->as<partition::Tuple>();
  uint64_t r_n = 20000, s_n = 20000;
  for (uint64_t i = 0; i < r_n; ++i) {
    rows[i] = {static_cast<int64_t>(i + 1), static_cast<int64_t>(i * 7)};
  }
  for (uint64_t j = 0; j < s_n; ++j) {
    rows[r_n + j] = {static_cast<int64_t>(j % r_n + 1),
                     static_cast<int64_t>(j)};
  }
  ScratchJoiner joiner(HashScheme::kBucketChaining,
                       hw_.gpu.scratchpad_bytes);
  ASSERT_LT(joiner.MaxBuildTuples(), r_n);
  uint64_t matches = 0, checksum = 0, cursor = 0;
  dev_->Launch({.name = "join"}, [&](exec::KernelContext& ctx) {
    joiner.JoinRange(ctx, *buf, 0, r_n, r_n, s_n, 0, nullptr, &cursor,
                     &matches, &checksum);
  });
  EXPECT_EQ(matches, s_n);
  uint64_t expect = 0;
  for (uint64_t j = 0; j < s_n; ++j) {
    expect += (j % r_n) * 7 + j;
  }
  EXPECT_EQ(checksum, expect);
  dev_->allocator().Free(*buf);
}

// --- CPU radix join ---

TEST_F(JoinTest, CpuRadixJoinIsExact) {
  auto wl = MakeWorkload(30000, 90000);
  uint64_t ref = ReferenceChecksum(wl.r, wl.s);
  CpuRadixJoin cpu;
  auto run = cpu.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->matches, 90000u);
  EXPECT_EQ(run->checksum, ref);
}

TEST_F(JoinTest, CpuRadixJoinPerfectIsFaster) {
  auto wl = MakeWorkload(40000, 40000);
  CpuRadixJoin chain({.scheme = HashScheme::kBucketChaining});
  CpuRadixJoin perfect({.scheme = HashScheme::kPerfect});
  auto c = chain.Run(*dev_, wl.r, wl.s);
  auto p = perfect.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(c->matches, p->matches);
  // Perfect hashing is 6-16% faster in the paper.
  double speedup = c->elapsed / p->elapsed;
  EXPECT_GT(speedup, 1.0);
  EXPECT_LT(speedup, 1.3);
}

TEST_F(JoinTest, XeonIsSlowerThanPower9OnLargeInputs) {
  // Large |R| forces the Xeon into two-pass partitioning (Figure 13).
  uint64_t n = 4 << 20;
  auto wl = MakeWorkload(n, n);
  sim::CpuSpec xeon = sim::HwSpec::XeonGold6126();
  CpuRadixJoin p9({.result_mode = ResultMode::kAggregate});
  CpuRadixJoin xe({.result_mode = ResultMode::kAggregate, .cpu = &xeon});
  auto a = p9.Run(*dev_, wl.r, wl.s);
  auto b = xe.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->matches, b->matches);
  EXPECT_LT(a->elapsed, b->elapsed);
}

// Every build key twice and S a foreign-key column: 2|S| matches. Writing
// them all used to run past the |S|-row result buffer.
TEST_F(JoinTest, CpuRadixJoinRefusesResultPastProbeRows) {
  auto wl = MakeWorkload(40000, 40000);
  RepeatBuildKeys(wl);
  CpuRadixJoin mat;
  auto m = mat.Run(*dev_, wl.r, wl.s);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kResourceExhausted)
      << m.status().ToString();
  // Aggregating the same input is exact.
  CpuRadixJoin agg({.result_mode = ResultMode::kAggregate});
  auto a = agg.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->matches, 2 * wl.s.rows());
  EXPECT_EQ(a->checksum, ReferenceChecksum(wl.r, wl.s));
}

// --- CPU-partitioned GPU join ---

TEST_F(JoinTest, CpuPartitionedJoinIsExact) {
  auto wl = MakeWorkload(50000, 150000, /*seed=*/7);
  uint64_t ref = ReferenceChecksum(wl.r, wl.s);
  CpuPartitionedJoin join;
  auto run = join.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, 150000u);
  EXPECT_EQ(run->checksum, ref);
  EXPECT_GT(run->elapsed, 0.0);
}

// Repeated build keys make more matches than the |S|-row result holds.
// The CPU-partitioned join refuses to materialize them on both of its
// paths: joining the pass-1 pairs directly (`bits2` derives to 0) and
// refining them in a second pass first.
void ExpectCpuPartitionedRefusesResultPastProbeRows(
    exec::Device& dev, const data::Workload& wl, uint32_t bits1,
    uint32_t bits2) {
  CpuPartitionedJoin mat({.bits1 = bits1, .bits2 = bits2});
  auto m = mat.Run(dev, wl.r, wl.s);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kResourceExhausted)
      << m.status().ToString();
  // Aggregating the same input is exact, and takes the intended path.
  CpuPartitionedJoin agg(
      {.result_mode = ResultMode::kAggregate, .bits1 = bits1, .bits2 = bits2});
  auto a = agg.Run(dev, wl.r, wl.s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->matches, 2 * wl.s.rows());
  EXPECT_EQ(a->checksum, ReferenceChecksum(wl.r, wl.s));
  bool second_pass = false;
  for (const auto& ph : a->phases) second_pass |= ph.name == "partition2";
  EXPECT_EQ(second_pass, bits2 != 0);
}

TEST_F(JoinTest, CpuPartitionedJoinDirectPathRefusesResultPastProbeRows) {
  auto wl = MakeWorkload(40000, 40000);
  RepeatBuildKeys(wl);
  ExpectCpuPartitionedRefusesResultPastProbeRows(*dev_, wl, /*bits1=*/8,
                                                 /*bits2=*/0);
}

TEST_F(JoinTest, CpuPartitionedJoinRefinedPathRefusesResultPastProbeRows) {
  auto wl = MakeWorkload(40000, 40000);
  RepeatBuildKeys(wl);
  ExpectCpuPartitionedRefusesResultPastProbeRows(*dev_, wl, /*bits1=*/2,
                                                 /*bits2=*/4);
}

TEST_F(JoinTest, CpuPartitionedJoinHandlesOutOfCoreData) {
  // Data exceeding GPU memory: must partition into multiple working sets.
  uint64_t n = hw_.gpu_mem.capacity / sizeof(partition::Tuple);  // 2x GPU
  auto wl = MakeWorkload(n, n);
  CpuPartitionedJoin join({.result_mode = ResultMode::kAggregate});
  auto run = join.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->matches, n);
  // Multiple transfer phases appear in the trace.
  int transfers = 0;
  for (const auto& ph : run->phases) {
    if (ph.name == "transfer") ++transfers;
  }
  EXPECT_GT(transfers, 1);
}

TEST_F(JoinTest, AllJoinsAgreeOnChecksum) {
  auto wl = MakeWorkload(25000, 75000, /*seed=*/99);
  uint64_t ref = ReferenceChecksum(wl.r, wl.s);
  NoPartitioningJoin npj;
  CpuRadixJoin cpu;
  CpuPartitionedJoin cpj;
  auto a = npj.Run(*dev_, wl.r, wl.s);
  auto b = cpu.Run(*dev_, wl.r, wl.s);
  auto c = cpj.Run(*dev_, wl.r, wl.s);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->checksum, ref);
  EXPECT_EQ(b->checksum, ref);
  EXPECT_EQ(c->checksum, ref);
}

TEST_F(JoinTest, ThroughputMetricMatchesPaperDefinition) {
  JoinRun run;
  run.elapsed = 2.0;
  EXPECT_DOUBLE_EQ(run.Throughput(1000, 3000), 2000.0);
}

}  // namespace
}  // namespace triton::join
