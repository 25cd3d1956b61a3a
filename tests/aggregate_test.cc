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

}  // namespace
}  // namespace triton::core
