#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "data/generator.h"
#include "data/relation.h"
#include "mem/allocator.h"
#include "sim/hw_spec.h"

namespace triton::data {
namespace {

class DataTest : public ::testing::Test {
 protected:
  sim::HwSpec hw_ = sim::HwSpec::Ac922NvLink().Scaled(64);
  mem::Allocator alloc_{hw_};
};

TEST_F(DataTest, RelationAllocatesColumns) {
  auto rel = Relation::AllocateCpu(alloc_, 1000, 2);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->rows(), 1000u);
  EXPECT_EQ(rel->payload_cols(), 2u);
  EXPECT_EQ(rel->tuple_bytes(), 24u);
  EXPECT_EQ(rel->total_bytes(), 24000u);
}

TEST_F(DataTest, ZeroRowRelationRejected) {
  EXPECT_FALSE(Relation::AllocateCpu(alloc_, 0).ok());
}

// 2^61 + 1 rows of 8-byte keys wrap a 64-bit byte count to 8 bytes; the
// generator must not be handed that 8-byte column to fill.
TEST_F(DataTest, RowCountWhoseByteSizeOverflowsRejected) {
  const uint64_t rows = (uint64_t{1} << 61) + 1;
  EXPECT_EQ(Relation::AllocateCpu(alloc_, rows).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(Relation::AllocateCpu(alloc_, uint64_t{1} << 60, 2)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  WorkloadConfig cfg;
  cfg.r_tuples = 16;
  cfg.s_tuples = rows;
  EXPECT_FALSE(GenerateWorkload(alloc_, cfg).ok());
}

TEST_F(DataTest, PrimaryKeysAreDensePermutation) {
  auto rel = Relation::AllocateCpu(alloc_, 4096);
  ASSERT_TRUE(rel.ok());
  FillPrimaryKeys(*rel, 7);
  std::vector<Key> keys(rel->keys(), rel->keys() + rel->rows());
  std::sort(keys.begin(), keys.end());
  for (uint64_t i = 0; i < rel->rows(); ++i) {
    EXPECT_EQ(keys[i], static_cast<Key>(i + 1));
  }
}

TEST_F(DataTest, ShuffleActuallyShuffles) {
  auto rel = Relation::AllocateCpu(alloc_, 4096);
  ASSERT_TRUE(rel.ok());
  FillPrimaryKeys(*rel, 7);
  uint64_t in_place = 0;
  for (uint64_t i = 0; i < rel->rows(); ++i) {
    if (rel->keys()[i] == static_cast<Key>(i + 1)) ++in_place;
  }
  EXPECT_LT(in_place, 32u);  // expected ~1 fixed point
}

TEST_F(DataTest, ForeignKeysInDomain) {
  auto rel = Relation::AllocateCpu(alloc_, 100000);
  ASSERT_TRUE(rel.ok());
  FillForeignKeys(*rel, 512, 9);
  std::set<Key> seen;
  for (uint64_t i = 0; i < rel->rows(); ++i) {
    Key k = rel->keys()[i];
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 512);
    seen.insert(k);
  }
  // Uniform draw of 100k values over 512: every value appears.
  EXPECT_EQ(seen.size(), 512u);
}

TEST_F(DataTest, ForeignKeysRoughlyUniform) {
  auto rel = Relation::AllocateCpu(alloc_, 256000);
  ASSERT_TRUE(rel.ok());
  FillForeignKeys(*rel, 256, 11);
  std::vector<int> counts(257, 0);
  for (uint64_t i = 0; i < rel->rows(); ++i) ++counts[rel->keys()[i]];
  for (int k = 1; k <= 256; ++k) {
    EXPECT_NEAR(counts[k], 1000, 200) << "key " << k;
  }
}

TEST_F(DataTest, WorkloadJoinCardinalityIsProbeSize) {
  WorkloadConfig cfg;
  cfg.r_tuples = 2000;
  cfg.s_tuples = 6000;
  auto wl = GenerateWorkload(alloc_, cfg);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->expected_join_cardinality, 6000u);
  // Ground truth against brute force.
  EXPECT_EQ(ReferenceJoinCardinality(wl->r, wl->s), 6000u);
}

TEST_F(DataTest, WorkloadIsDeterministicPerSeed) {
  WorkloadConfig cfg;
  cfg.r_tuples = 512;
  cfg.s_tuples = 512;
  cfg.seed = 123;
  auto a = GenerateWorkload(alloc_, cfg);
  auto b = GenerateWorkload(alloc_, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (uint64_t i = 0; i < 512; ++i) {
    EXPECT_EQ(a->r.keys()[i], b->r.keys()[i]);
    EXPECT_EQ(a->s.keys()[i], b->s.keys()[i]);
  }
  cfg.seed = 124;
  auto c = GenerateWorkload(alloc_, cfg);
  ASSERT_TRUE(c.ok());
  bool differs = false;
  for (uint64_t i = 0; i < 512; ++i) differs |= (a->s.keys()[i] != c->s.keys()[i]);
  EXPECT_TRUE(differs);
}

TEST_F(DataTest, WidePayloadWorkload) {
  WorkloadConfig cfg;
  cfg.r_tuples = 100;
  cfg.s_tuples = 100;
  cfg.payload_cols = 16;
  auto wl = GenerateWorkload(alloc_, cfg);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->r.payload_cols(), 16u);
  EXPECT_EQ(wl->r.tuple_bytes(), 8u + 16u * 8u);
  // Payload columns are filled with distinct pseudo-random data.
  EXPECT_NE(wl->r.payload(0)[0], wl->r.payload(1)[0]);
}

TEST_F(DataTest, ZipfKeysStayInDomainAndMatchEverything) {
  WorkloadConfig cfg;
  cfg.r_tuples = 1000;
  cfg.s_tuples = 50000;
  cfg.zipf_theta = 0.9;
  auto wl = GenerateWorkload(alloc_, cfg);
  ASSERT_TRUE(wl.ok());
  for (uint64_t i = 0; i < wl->s.rows(); ++i) {
    ASSERT_GE(wl->s.keys()[i], 1);
    ASSERT_LE(wl->s.keys()[i], 1000);
  }
  // PK/FK property is preserved: every probe tuple matches exactly once.
  EXPECT_EQ(ReferenceJoinCardinality(wl->r, wl->s), 50000u);
}

TEST_F(DataTest, ZipfSkewConcentratesMass) {
  auto uniform = Relation::AllocateCpu(alloc_, 100000);
  auto skewed = Relation::AllocateCpu(alloc_, 100000);
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(skewed.ok());
  FillForeignKeys(*uniform, 10000, 3);
  FillForeignKeysZipf(*skewed, 10000, 0.99, 3);
  auto top_key_count = [](const Relation& rel) {
    std::map<Key, uint64_t> counts;
    for (uint64_t i = 0; i < rel.rows(); ++i) ++counts[rel.keys()[i]];
    uint64_t top = 0;
    for (const auto& [k, c] : counts) top = std::max(top, c);
    return top;
  };
  // The hottest skewed key carries far more probes than any uniform key.
  EXPECT_GT(top_key_count(*skewed), 10 * top_key_count(*uniform));
}

TEST_F(DataTest, ZipfThetaZeroIsUniform) {
  auto a = Relation::AllocateCpu(alloc_, 5000);
  auto b = Relation::AllocateCpu(alloc_, 5000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  FillForeignKeys(*a, 128, 5);
  FillForeignKeysZipf(*b, 128, 0.0, 5);
  for (uint64_t i = 0; i < 5000; ++i) EXPECT_EQ(a->keys()[i], b->keys()[i]);
}

TEST_F(DataTest, InvalidConfigRejected) {
  WorkloadConfig cfg;
  cfg.r_tuples = 0;
  cfg.s_tuples = 10;
  EXPECT_FALSE(GenerateWorkload(alloc_, cfg).ok());
}

// A NaN or negative theta used to run uniform keys and +inf sent every key
// to 1: each is refused instead of running a workload nobody asked for.
TEST_F(DataTest, NonFiniteOrNegativeZipfThetaRejected) {
  for (double theta : {std::nan(""), -1.0, -1e-9,
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(CheckZipfTheta(theta).code(),
              util::StatusCode::kInvalidArgument)
        << theta;
    WorkloadConfig cfg;
    cfg.r_tuples = 100;
    cfg.s_tuples = 100;
    cfg.zipf_theta = theta;
    EXPECT_EQ(GenerateWorkload(alloc_, cfg).status().code(),
              util::StatusCode::kInvalidArgument)
        << theta;
  }
  for (double theta : {0.0, 0.5, 1.0, 1.5}) {
    EXPECT_TRUE(CheckZipfTheta(theta).ok()) << theta;
  }
}

}  // namespace
}  // namespace triton::data
