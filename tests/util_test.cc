#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/units.h"

namespace triton::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::OutOfMemory("16 GiB exceeded");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s.ToString(), "OutOfMemory: 16 GiB exceeded");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::InvalidArgument("bad"); };
  auto outer = [&]() -> Status {
    TRITON_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("x");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(BitsTest, PowerOfTwoPredicates) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2048));
  EXPECT_FALSE(IsPowerOfTwo(2049));
}

TEST(BitsTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(4096), 4096u);
  EXPECT_EQ(NextPowerOfTwo(4097), 8192u);
}

TEST(BitsTest, Logs) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2048), 11u);
  EXPECT_EQ(FloorLog2(4095), 11u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2048), 11u);
  EXPECT_EQ(CeilLog2(2049), 12u);
}

TEST(BitsTest, Alignment) {
  EXPECT_EQ(AlignUp(0, 128), 0u);
  EXPECT_EQ(AlignUp(1, 128), 128u);
  EXPECT_EQ(AlignUp(128, 128), 128u);
  EXPECT_EQ(AlignDown(255, 128), 128u);
}

// AlignUp masks, which only rounds to a power of two: at a 21845-byte
// page (scale 96) it would return 3 for 3. Dev builds refuse such an
// alignment; rounding to any multiple is CeilDiv's job.
TEST(BitsDeathTest, AlignmentToNonPowerOfTwoFailsInDevBuilds) {
  EXPECT_DEBUG_DEATH(AlignUp(3, 21845), "AlignUp to 21845");
  EXPECT_DEBUG_DEATH(AlignDown(21846, 21845), "AlignDown to 21845");
  EXPECT_EQ(CeilDiv(3, 21845) * 21845, 21845u);
}

TEST(RandomTest, LcgBoundedStaysInRange) {
  Lcg64 lcg(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(lcg.NextBounded(100), 100u);
  }
}

TEST(RandomTest, LcgIsRoughlyUniform) {
  Lcg64 lcg(13);
  constexpr int kBuckets = 16;
  int counts[kBuckets] = {};
  constexpr int kDraws = 160000;
  for (int i = 0; i < kDraws; ++i) ++counts[lcg.NextBounded(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(StatsTest, MeanAndStderr) {
  RunningStat st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.Add(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.138, 1e-3);
  EXPECT_NEAR(st.stderr_mean(), 2.138 / std::sqrt(8.0), 1e-3);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.00 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(16ull * kGiB), "16.00 GiB");
}

TEST(TableTest, AlignedRendering) {
  Table t({"size", "throughput"});
  t.AddRow({"128", "2.25"});
  t.AddRow({"2048", "1.70"});
  std::string text = t.ToText();
  EXPECT_NE(text.find("| size "), std::string::npos);
  EXPECT_NE(text.find("| 2048 "), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvRendering) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(FlagsTest, ParsesAllSyntaxes) {
  const char* argv[] = {"prog",         "--scale=32", "--runs", "5",
                        "positional",   "--csv",      "--frac=0.5",
                        "--list=1,2,3"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("scale", 64), 32);
  EXPECT_EQ(flags.GetInt("runs", 1), 5);
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("frac", 0.0), 0.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  auto list = flags.GetIntList("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3);
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("scale", 64), 64);
  EXPECT_EQ(flags.GetString("name", "x"), "x");
  auto list = flags.GetIntList("sizes", {128, 512});
  EXPECT_EQ(list.size(), 2u);
}

}  // namespace
}  // namespace triton::util
