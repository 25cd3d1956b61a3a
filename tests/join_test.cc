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
#include "partition/input.h"
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

// A perfect table has one slot per key in 1..|R|: probe keys outside that
// domain miss without indexing it, and every other probe finds its row.
TEST_F(JoinTest, NpjPerfectProbesOutsideOneToRMiss) {
  const uint64_t n = 5000;
  std::vector<data::Key> dense(n);
  for (uint64_t i = 0; i < n; ++i) dense[i] = static_cast<data::Key>(i + 1);
  data::Relation r = MakeRelation(dev_->allocator(), dense);
  std::vector<data::Key> probes = {0, -3, static_cast<data::Key>(n + 1),
                                   std::numeric_limits<data::Key>::max()};
  for (data::Key k = 1; k <= 100; ++k) probes.push_back(k * 50);
  data::Relation s = MakeRelation(dev_->allocator(), probes);
  for (ResultMode mode : {ResultMode::kMaterialize, ResultMode::kAggregate}) {
    NoPartitioningJoin npj(
        {.scheme = HashScheme::kPerfect, .result_mode = mode});
    auto run = npj.Run(*dev_, r, s);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->matches, 100u);
    EXPECT_EQ(run->checksum, ReferenceChecksum(r, s));
  }
}

// Probe segment ends must be ascending and end at |S|. Malformed ones are
// refused before the probe launches (no trace record), and the table
// still answers a valid probe afterwards.
TEST_F(JoinTest, NpjProbeRefusesMalformedSegmentEnds) {
  auto wl = MakeWorkload(5000, 12000);
  auto table = NpjTable::Build(*dev_, wl.r,
                               {.scheme = HashScheme::kLinearProbing,
                                .result_mode = ResultMode::kAggregate});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const uint64_t n = wl.s.rows();
  const std::vector<std::vector<uint64_t>> malformed = {
      {}, {6000, 3000, n}, {3000, n - 1}, {3000, n + 1}};
  for (const std::vector<uint64_t>& ends : malformed) {
    const size_t launches = dev_->trace().size();
    auto totals = table->Probe(*dev_, wl.s, ends, /*result=*/nullptr);
    ASSERT_FALSE(totals.ok()) << ends.size() << " segment ends";
    EXPECT_EQ(totals.status().code(), util::StatusCode::kInvalidArgument)
        << totals.status().ToString();
    EXPECT_EQ(dev_->trace().size(), launches);
  }
  auto totals = table->Probe(*dev_, wl.s, {3000, n}, /*result=*/nullptr);
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  ASSERT_EQ(totals->size(), 2u);
  EXPECT_EQ((*totals)[0].matches + (*totals)[1].matches, n);
  EXPECT_EQ((*totals)[0].checksum + (*totals)[1].checksum,
            ReferenceChecksum(wl.r, wl.s));
  table->Free(*dev_);
}

// --- Scratch joiner ---

/// Row-format copy of `rel` (key, first payload) placed at tuple offset
/// `at` of `rows`.
void CopyRows(const data::Relation& rel, partition::Tuple* rows,
              uint64_t at) {
  for (uint64_t i = 0; i < rel.rows(); ++i) {
    rows[at + i] = {rel.keys()[i], rel.payload(0)[i]};
  }
}

TEST_F(JoinTest, ScratchJoinerChunksOversizedBuildSides) {
  // A build side far beyond the scratchpad capacity must still produce
  // exact results via chunked builds, with S re-read once per chunk.
  const uint64_t n = 20000;
  auto wl = MakeWorkload(n, n);
  auto buf = dev_->allocator().AllocateCpu(2 * n * sizeof(partition::Tuple));
  ASSERT_TRUE(buf.ok());
  CopyRows(wl.r, buf->as<partition::Tuple>(), 0);
  CopyRows(wl.s, buf->as<partition::Tuple>(), n);
  ScratchJoiner joiner(HashScheme::kBucketChaining,
                       hw_.gpu.scratchpad_bytes);
  ASSERT_LT(joiner.MaxBuildTuples(), n);
  const uint64_t chunks = (n + joiner.MaxBuildTuples() - 1) /
                          joiner.MaxBuildTuples();
  uint64_t matches = 0, checksum = 0;
  exec::KernelRecord record =
      dev_->Launch({.name = "join"}, [&](exec::KernelContext& ctx) {
        joiner.JoinSlicesEmit(
            ctx, partition::RowInput(&*buf, 0, n),
            partition::RowInput(&*buf, n, n), /*radix_shift=*/0,
            [&](int64_t build_val, int64_t probe_val) {
              ++matches;
              checksum += static_cast<uint64_t>(build_val) +
                          static_cast<uint64_t>(probe_val);
            });
      });
  EXPECT_EQ(matches, n);
  EXPECT_EQ(checksum, ReferenceChecksum(wl.r, wl.s));
  EXPECT_EQ(record.counters.tuples, n + chunks * n);
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
void ExpectCpuPartitionedRefusesResultPastProbeRows(exec::Device& dev,
                                                    const data::Workload& wl,
                                                    bool second_pass) {
  CpuPartitionedJoin mat;
  auto m = mat.Run(dev, wl.r, wl.s);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kResourceExhausted)
      << m.status().ToString();
  // Aggregating the same input is exact, and takes the intended path.
  CpuPartitionedJoin agg({.result_mode = ResultMode::kAggregate});
  auto a = agg.Run(dev, wl.r, wl.s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->matches, 2 * wl.s.rows());
  EXPECT_EQ(a->checksum, ReferenceChecksum(wl.r, wl.s));
  bool refined = false;
  for (const auto& ph : a->phases) refined |= ph.name == "partition2";
  EXPECT_EQ(refined, second_pass);
}

TEST_F(JoinTest, CpuPartitionedJoinDirectPathRefusesResultPastProbeRows) {
  // With a 2 MiB scratchpad a pass-1 build partition fits the join's
  // table, so `bits2` derives to 0.
  hw_.gpu.scratchpad_bytes = 2 << 20;
  dev_ = std::make_unique<exec::Device>(hw_);
  auto wl = MakeWorkload(40000, 40000);
  RepeatBuildKeys(wl);
  ExpectCpuPartitionedRefusesResultPastProbeRows(*dev_, wl,
                                                 /*second_pass=*/false);
}

TEST_F(JoinTest, CpuPartitionedJoinRefinedPathRefusesResultPastProbeRows) {
  auto wl = MakeWorkload(40000, 40000);
  RepeatBuildKeys(wl);
  ExpectCpuPartitionedRefusesResultPastProbeRows(*dev_, wl,
                                                 /*second_pass=*/true);
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
