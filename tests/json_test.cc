// Tests for the benchmark-reporting layer: the canonical JSON writer and
// the Reporter's determinism contract. The round-trip test is the
// load-bearing one — it re-measures the same join at 1 and 8 worker
// threads and demands *byte-identical* serialized reports, which is the
// property tools/bench_regress.py builds its exact baseline diff on. The
// BenchEnv tests check that the bench flags refuse values no run can use.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/reporter.h"
#include "core/triton_join.h"
#include "data/generator.h"
#include "exec/block_executor.h"
#include "exec/device.h"
#include "sim/hw_spec.h"
#include "util/json.h"

namespace triton {
namespace {

using util::JsonWriter;

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter w;
  w.BeginObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{}\n");

  JsonWriter a;
  a.BeginArray();
  a.EndArray();
  EXPECT_EQ(a.str(), "[]\n");
}

TEST(JsonWriterTest, NestedStructureAndIndentation) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("fig");
  w.Key("points");
  w.BeginArray();
  w.BeginObject();
  w.Key("x");
  w.Int(1);
  w.EndObject();
  w.EndArray();
  w.Key("empty");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"fig\",\n"
            "  \"points\": [\n"
            "    {\n"
            "      \"x\": 1\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonWriter::Escape("\b\f\r"), "\\b\\f\\r");
  EXPECT_EQ(JsonWriter::Escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // Non-ASCII UTF-8 passes through untouched.
  EXPECT_EQ(JsonWriter::Escape("µs"), "µs");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeStrings) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(-std::numeric_limits<double>::infinity());
  w.Double(1.5);
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[\n"
            "  \"NaN\",\n"
            "  \"Infinity\",\n"
            "  \"-Infinity\",\n"
            "  1.5\n"
            "]\n");
}

TEST(JsonWriterTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 0.1, 1e300, 5e-324,
                   0.30000000000000004, 1234567890.123}) {
    std::string s = JsonWriter::FormatDouble(v);
    double parsed = 0.0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), parsed);
    ASSERT_EQ(ec, std::errc()) << s;
    ASSERT_EQ(ptr, s.data() + s.size()) << s;
    EXPECT_EQ(parsed, v) << s;
  }
  // Shortest form: no trailing zeros from fixed-width printf formats.
  EXPECT_EQ(JsonWriter::FormatDouble(0.1), "0.1");
}

TEST(JsonWriterTest, IntegerWidths) {
  JsonWriter w;
  w.BeginArray();
  w.Int(-9223372036854775807LL - 1);
  w.Uint(18446744073709551615ULL);
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[\n"
            "  -9223372036854775808,\n"
            "  18446744073709551615\n"
            "]\n");
}

// --- Reporter determinism round trip ---

/// Scoped worker-pool override; restores the previous size.
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

/// Measures a small Triton join and serializes it exactly as a bench
/// binary would.
std::string ReportAt(uint32_t threads) {
  ThreadsGuard guard(threads);
  bench::Reporter reporter;
  reporter.Configure("test_fig", "Test figure", "Round trip", "test machine",
                     /*scale=*/2048, /*runs=*/2, /*quick=*/true);
  const sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(2048);
  const uint64_t n = 128 * 1024;
  bench::Measurement meas;
  for (int rep = 0; rep < 2; ++rep) {
    exec::Device dev(hw);
    data::WorkloadConfig cfg;
    cfg.r_tuples = n;
    cfg.s_tuples = n;
    cfg.seed = 42 + static_cast<uint64_t>(rep);
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    CHECK_OK(wl.status());
    core::TritonJoin join({.result_mode = join::ResultMode::kAggregate});
    auto run = join.Run(dev, wl->r, wl->s);
    CHECK_OK(run.status());
    CHECK_EQ(run->matches, n);
    meas.AddRun(run->elapsed, run->Throughput(n, n) / 1e9, run->totals);
  }
  reporter.Add({.series = "Triton",
                .axis = "mtuples_per_relation",
                .x = 128.0,
                .has_x = true,
                .unit = "gtuples_per_s",
                .m = meas,
                .extra = {{"checksum_ok", 1.0}}});
  return reporter.ToJson();
}

TEST(ReporterRoundTripTest, ByteIdenticalAcrossThreadCounts) {
  std::string serial = ReportAt(1);
  std::string parallel = ReportAt(8);
  EXPECT_EQ(serial, parallel)
      << "the report serialization must not depend on the worker pool";
  // And across reruns at the same thread count.
  EXPECT_EQ(parallel, ReportAt(8));
}

TEST(ReporterRoundTripTest, ReportContainsModeledQuantitiesOnly) {
  std::string report = ReportAt(2);
  // Spot-check the schema: identity, the point, its counters...
  EXPECT_NE(report.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(report.find("\"figure\": \"test_fig\""), std::string::npos);
  EXPECT_NE(report.find("\"series\": \"Triton\""), std::string::npos);
  EXPECT_NE(report.find("\"gpu_mem_read\""), std::string::npos);
  EXPECT_NE(report.find("\"checksum_ok\": 1"), std::string::npos);
  // ...and the absence of volatile host observations (stdout only).
  EXPECT_EQ(report.find("wall"), std::string::npos);
  EXPECT_EQ(report.find("threads"), std::string::npos);
}

// --- Bench flag validation ---

/// Builds a BenchEnv from `flags`, as a bench's main would.
void MakeBenchEnv(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "bench_test");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  bench::BenchEnv env(static_cast<int>(argv.size()), argv.data(), "test_fig",
                      "Test figure", "flag validation");
}

// --threads=-1 would otherwise be cast to 2^32 - 1 worker threads: a count
// outside [0, kMaxThreads] is refused like an unknown flag, before any
// worker starts. The child process runs the statement alone
// ("threadsafe" style), so it starts from a one-thread process.
TEST(BenchEnvDeathTest, RefusesThreadCountOutsideRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* flag : {"--threads=-1", "--threads=1025"}) {
    EXPECT_EXIT(MakeBenchEnv({flag}), ::testing::ExitedWithCode(2),
                "is outside \\[0, 1024\\]")
        << flag;
  }
}

// A scale below 1 is refused before HwSpec::Scaled, which aborts on it,
// is reached.
TEST(BenchEnvDeathTest, RefusesScaleBelowOne) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* flag : {"--scale=0", "--scale=-4"}) {
    EXPECT_EXIT(MakeBenchEnv({flag}), ::testing::ExitedWithCode(2),
                "is below 1")
        << flag;
  }
}

}  // namespace
}  // namespace triton
