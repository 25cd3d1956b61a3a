#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/triton_aggregate.h"
#include "partition/input.h"
#include "data/generator.h"
#include "exec/device.h"
#include "sim/hw_spec.h"

namespace triton::core {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hw_ = sim::HwSpec::Ac922NvLink().Scaled(64);
    dev_ = std::make_unique<exec::Device>(hw_);
  }

  /// Relation with `rows` tuples whose keys repeat over `domain` groups.
  data::Relation MakeGrouped(uint64_t rows, uint64_t domain, uint64_t seed) {
    auto rel = data::Relation::AllocateCpu(dev_->allocator(), rows);
    CHECK_OK(rel.status());
    data::FillForeignKeys(*rel, domain, seed);
    data::FillPayloads(*rel, seed + 1);
    return std::move(rel).value();
  }

  sim::HwSpec hw_;
  std::unique_ptr<exec::Device> dev_;
};

TEST_F(AggregateTest, MatchesReferenceGroupsAndSums) {
  data::Relation rel = MakeGrouped(100000, 3000, 5);
  auto [ref_groups, ref_checksum] = ReferenceAggregate(rel);
  EXPECT_EQ(ref_groups, 3000u);  // every group drawn at this density
  TritonAggregate agg;
  auto run = agg.Run(*dev_, rel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->groups, ref_groups);
  EXPECT_EQ(run->checksum, ref_checksum);
  EXPECT_GT(run->elapsed, 0.0);
}

TEST_F(AggregateTest, DistinctCountingMatchesReference) {
  data::Relation rel = MakeGrouped(50000, 777, 9);
  TritonAggregate agg({.distinct_only = true});
  auto run = agg.Run(*dev_, rel);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->groups, 777u);
}

TEST_F(AggregateTest, AllKeysUniqueDegeneratesToDeduplication) {
  auto rel = data::Relation::AllocateCpu(dev_->allocator(), 40000);
  ASSERT_TRUE(rel.ok());
  data::FillPrimaryKeys(*rel, 3, true);
  data::FillPayloads(*rel, 4);
  auto [ref_groups, ref_checksum] = ReferenceAggregate(*rel);
  EXPECT_EQ(ref_groups, 40000u);
  TritonAggregate agg;
  auto run = agg.Run(*dev_, *rel);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->groups, 40000u);
  EXPECT_EQ(run->checksum, ref_checksum);
}

TEST_F(AggregateTest, OutOfCoreStateStaysExact) {
  uint64_t n = hw_.gpu_mem.capacity / sizeof(partition::Tuple);  // 2x GPU memory
  data::Relation rel = MakeGrouped(n, n / 8, 11);
  auto [ref_groups, ref_checksum] = ReferenceAggregate(rel);
  TritonAggregate agg;
  auto run = agg.Run(*dev_, rel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->groups, ref_groups);
  EXPECT_EQ(run->checksum, ref_checksum);
  // Out-of-core: interconnect traffic exceeds one pass over the input.
  EXPECT_GT(run->totals.link_read_payload, n * sizeof(partition::Tuple));
}

TEST_F(AggregateTest, SkewedGroupsStayExact) {
  auto rel = data::Relation::AllocateCpu(dev_->allocator(), 80000);
  ASSERT_TRUE(rel.ok());
  data::FillForeignKeysZipf(*rel, 5000, 1.05, 13);
  data::FillPayloads(*rel, 14);
  auto [ref_groups, ref_checksum] = ReferenceAggregate(*rel);
  TritonAggregate agg;
  auto run = agg.Run(*dev_, *rel);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->groups, ref_groups);
  EXPECT_EQ(run->checksum, ref_checksum);
}

TEST_F(AggregateTest, PayloadsNearInt64MaxWrapLikeTheReference) {
  // Group sums overflow int64_t many times over; the aggregate wraps like
  // the reference's uint64_t fold instead of overflowing a signed sum.
  data::Relation rel = MakeGrouped(20000, 16, 31);
  int64_t* values = rel.payload(0);
  for (uint64_t i = 0; i < rel.rows(); ++i) {
    values[i] = INT64_MAX - static_cast<int64_t>(i % 7);
  }
  auto [ref_groups, ref_checksum] = ReferenceAggregate(rel);
  TritonAggregate agg;
  auto run = agg.Run(*dev_, rel);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->groups, ref_groups);
  EXPECT_EQ(run->checksum, ref_checksum);
}

TEST_F(AggregateTest, ExplicitBitsRespectedAndExact) {
  data::Relation rel = MakeGrouped(30000, 500, 21);
  auto [ref_groups, ref_checksum] = ReferenceAggregate(rel);
  TritonAggregate agg({.bits1 = 3, .bits2 = 5});
  auto run = agg.Run(*dev_, rel);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->groups, ref_groups);
  EXPECT_EQ(run->checksum, ref_checksum);
}

TEST_F(AggregateTest, ModeledOutputIsPinned) {
  // No bench baseline covers the aggregate's modeled output, so its
  // elapsed time and merged counters are pinned here: in core, with the
  // partitioned state partly cached (interleaved), and fully spilled.
  struct Pin {
    uint64_t cache_bytes;
    double elapsed;
    sim::PerfCounters totals;
  };
  const Pin pins[] = {
      {UINT64_MAX, 0x1.88f94b65a8f4ep-15,
       {.gpu_mem_read = 6400000, .gpu_mem_write = 4800000,
        .gpu_mem_random_write = 3200000, .link_read_payload = 1600000,
        .link_read_physical = 1802880, .link_read_txns = 12640,
        .cpu_mem_read = 800000, .gpu_tlb_lookups = 41604,
        .gpu_tlb_misses = 744, .iommu_requests = 4, .iommu_walks = 4,
        .issue_slots = 2963832, .tuples = 500000}},
      {1000000, 0x1.1de7e564f5a1cp-13,
       {.gpu_mem_read = 8883168, .gpu_mem_write = 7662448,
        .gpu_mem_random_write = 4462448, .link_read_payload = 7116832,
        .link_read_physical = 8013440, .link_write_payload = 1937552,
        .link_write_physical = 2181984, .link_read_txns = 55970,
        .link_write_txns = 15180, .cpu_mem_read = 1600000,
        .gpu_tlb_lookups = 82256, .gpu_tlb_misses = 1161, .l3_hits = 5,
        .iommu_requests = 110, .iommu_walks = 12, .issue_slots = 5926360,
        .tuples = 1000000}},
      {0, 0x1.6c2c2f1b9603fp-13,
       {.gpu_mem_read = 6400000, .gpu_mem_write = 6400000,
        .gpu_mem_random_write = 3200000, .link_read_payload = 9600000,
        .link_read_physical = 10810368, .link_write_payload = 3200000,
        .link_write_physical = 3603776, .link_read_txns = 75534,
        .link_write_txns = 25071, .cpu_mem_read = 1600000,
        .gpu_tlb_lookups = 82250, .gpu_tlb_misses = 1161, .l3_hits = 10,
        .iommu_requests = 179, .iommu_walks = 13, .issue_slots = 5926360,
        .tuples = 1000000}},
  };
  for (const Pin& pin : pins) {
    const bool in_core = pin.cache_bytes == UINT64_MAX;
    exec::Device dev(hw_);
    auto rel = data::Relation::AllocateCpu(dev.allocator(),
                                           in_core ? 100000 : 200000);
    ASSERT_TRUE(rel.ok());
    data::FillForeignKeys(*rel, in_core ? 3000 : 20000, in_core ? 5 : 7);
    data::FillPayloads(*rel, in_core ? 6 : 8);
    TritonAggregate agg({.cache_bytes = pin.cache_bytes});
    auto run = agg.Run(dev, *rel);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->elapsed, pin.elapsed) << pin.cache_bytes;
    EXPECT_TRUE(run->totals == pin.totals)
        << pin.cache_bytes << ": " << run->totals.ToString();
  }
}

}  // namespace
}  // namespace triton::core
