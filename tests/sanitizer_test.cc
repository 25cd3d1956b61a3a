// DeviceSanitizer tests: negative tests plant one specific bug each and
// assert the exact violation code; clean runs check that the instrumented
// partitioners stay quiet across the fanout range of Figure 18.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "exec/device.h"
#include "partition/hierarchical.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "sanitizer/interval_log.h"
#include "sanitizer/sanitizer.h"
#include "sim/hw_spec.h"
#include "util/random.h"

namespace triton::sanitizer {
namespace {

using partition::ColumnInput;
using partition::PartitionLayout;
using partition::PartitionRun;
using partition::RadixConfig;
using partition::Tuple;

class SanitizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hw_ = sim::HwSpec::Ac922NvLink().Scaled(64);
    dev_ = std::make_unique<exec::Device>(hw_, /*sanitize=*/true);
    ASSERT_NE(dev_->sanitizer(), nullptr);
  }

  /// Takes all violations and asserts there is exactly one, of `code`.
  Violation TakeSingle(ViolationCode code) {
    std::vector<Violation> vs = dev_->sanitizer()->TakeViolations();
    EXPECT_EQ(vs.size(), 1u) << "expected exactly one violation";
    if (vs.empty()) return Violation{};
    EXPECT_EQ(vs.front().code, code) << vs.front().message;
    return vs.front();
  }

  sim::HwSpec hw_;
  std::unique_ptr<exec::Device> dev_;
};

// --- Enablement ---

TEST(SanitizerEnablementTest, EnvVariableOverridesDefault) {
  // tests/sanitizer_default.cc turned the default on.
  EXPECT_TRUE(DefaultEnabled());
  ASSERT_EQ(setenv("TRITON_SANITIZER", "0", 1), 0);
  EXPECT_FALSE(DefaultEnabled());
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(64);
  exec::Device off(hw);
  EXPECT_EQ(off.sanitizer(), nullptr);
  ASSERT_EQ(setenv("TRITON_SANITIZER", "1", 1), 0);
  exec::Device on(hw);
  EXPECT_NE(on.sanitizer(), nullptr);
  ASSERT_EQ(unsetenv("TRITON_SANITIZER"), 0);
  EXPECT_TRUE(DefaultEnabled());
}

// --- Negative: accounted traffic out of bounds (the OOB flush) ---

TEST_F(SanitizerTest, FlushPastAllocationExtentIsReported) {
  auto buf = dev_->allocator().AllocateCpu(1000);
  ASSERT_TRUE(buf.ok());
  dev_->Launch({.name = "part1"}, [&](exec::KernelContext& ctx) {
    ctx.SetSanitizerBlock(12);
    ctx.SetSanitizerFlushSite(/*warp=*/3, /*partition=*/907);
    // A flush whose cursor overran its partition extent: the last 8 bytes
    // are inside the allocation, the following 40 are not.
    ctx.WriteNoTlb(*buf, buf->size() - 8, 48, /*random=*/true);
    ctx.AddTuples(1);
    ctx.Charge(1);
  });
  Violation v = TakeSingle(ViolationCode::kAccountedOutOfBounds);
  EXPECT_NE(v.message.find("kernel part1"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("block 12"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("warp 3"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("partition 907"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("flush wrote 40 B past extent"), std::string::npos)
      << v.message;
}

TEST_F(SanitizerTest, AccountedTrafficOutsideAnyAllocationIsReported) {
  dev_->Launch({.name = "stray"}, [&](exec::KernelContext&) {
    // No allocation lives at address 0x1000.
    dev_->sanitizer()->RecordAccounted(0x1000, 64, /*is_write=*/true);
  });
  Violation v = TakeSingle(ViolationCode::kAccountedOutOfBounds);
  EXPECT_NE(v.message.find("hits no live allocation"), std::string::npos)
      << v.message;
}

// --- Negative: functional store with no accounted traffic ---

TEST_F(SanitizerTest, UnaccountedStoreIsReported) {
  auto buf = dev_->allocator().AllocateCpu(4096);
  ASSERT_TRUE(buf.ok());
  dev_->Launch({.name = "leaky"}, [&](exec::KernelContext& ctx) {
    // Functional write through the checked API, but the kernel "forgets"
    // to account the corresponding traffic.
    ctx.Store<uint64_t>(*buf, 0, 42);
    ctx.AddTuples(1);
    ctx.Charge(1);
  });
  Violation v = TakeSingle(ViolationCode::kUnaccountedWrite);
  EXPECT_NE(v.message.find("have no accounted traffic"), std::string::npos)
      << v.message;
}

TEST_F(SanitizerTest, AccountedStoreIsClean) {
  auto buf = dev_->allocator().AllocateCpu(4096);
  ASSERT_TRUE(buf.ok());
  dev_->Launch({.name = "clean"}, [&](exec::KernelContext& ctx) {
    ctx.Store<uint64_t>(*buf, 1, 42);
    ctx.WriteSeq(*buf, 0, 64);
    ctx.AddTuples(1);
    ctx.Charge(1);
  });
  EXPECT_TRUE(dev_->sanitizer()->CheckOk().ok());
}

TEST_F(SanitizerTest, AccountedWriteBeforeStoreCountsAsCoverage) {
  auto buf = dev_->allocator().AllocateCpu(4096);
  ASSERT_TRUE(buf.ok());
  dev_->Launch({.name = "early"}, [&](exec::KernelContext& ctx) {
    // The traffic is accounted first and the store lands afterwards in
    // the same launch; coverage is a property of the launch, not of order.
    ctx.WriteSeq(*buf, 0, 64);
    ctx.Store<uint64_t>(*buf, 3, 42);
    ctx.AddTuples(1);
    ctx.Charge(1);
  });
  EXPECT_TRUE(dev_->sanitizer()->CheckOk().ok());
}

TEST_F(SanitizerTest, PartiallyAccountedRunReportsStoredAndAccountedBytes) {
  auto buf = dev_->allocator().AllocateCpu(4096);
  ASSERT_TRUE(buf.ok());
  const uint64_t values[4] = {1, 2, 3, 4};
  dev_->Launch({.name = "partial"}, [&](exec::KernelContext& ctx) {
    ctx.StoreRun(*buf, 0, values, 4);  // bytes [0, 32)
    ctx.Store<uint64_t>(*buf, 10, 5);  // bytes [80, 88)
    ctx.WriteSeq(*buf, 8, 16);         // covers [8, 24)
    ctx.WriteSeq(*buf, 200, 8);        // covers nothing stored
    ctx.AddTuples(1);
    ctx.Charge(1);
  });
  Violation v = TakeSingle(ViolationCode::kUnaccountedWrite);
  EXPECT_NE(v.message.find("24 B of functional writes"), std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("(40 B stored, 24 B accounted)"), std::string::npos)
      << v.message;
}

// --- IntervalLog against a byte-bitmap oracle ---

/// One flag per byte of a small address space: the obviously correct
/// union that IntervalLog must agree with.
class ByteOracle {
 public:
  explicit ByteOracle(uint64_t bytes) : set_(bytes, 0) {}

  void Add(uint64_t begin, uint64_t end) {
    if (begin >= end) return;
    // Runs overlapping or adjacent to [begin, end) fuse with it into one.
    const uint64_t lo = begin > 0 ? begin - 1 : 0;
    const uint64_t hi = std::min<uint64_t>(end + 1, set_.size());
    size_t touched = 0;
    for (uint64_t i = lo; i < hi; ++i) {
      touched += set_[i] && (i == lo || !set_[i - 1]);
    }
    runs_ = runs_ + 1 - touched;
    for (uint64_t i = begin; i < end; ++i) set_[i] = 1;
  }

  uint64_t TotalBytes() const {
    return static_cast<uint64_t>(std::count(set_.begin(), set_.end(), 1));
  }

  bool Has(uint64_t byte) const { return set_[byte] != 0; }

  uint64_t UncoveredBy(const ByteOracle& cover) const {
    uint64_t n = 0;
    for (size_t i = 0; i < set_.size(); ++i) n += set_[i] && !cover.set_[i];
    return n;
  }

  /// Maximal runs of set bytes: the entry count of a normalized log.
  size_t Runs() const { return runs_; }

 private:
  std::vector<uint8_t> set_;
  size_t runs_ = 0;
};

constexpr uint64_t kOracleBytes = uint64_t{1} << 15;

/// Draws the next interval from the shapes kernels emit: sequential
/// continuations, overlaps and exact duplicates of the previous interval,
/// fresh random positions, and empty or reversed (ignored) intervals.
std::pair<uint64_t, uint64_t> NextInterval(util::Rng& rng,
                                           std::pair<uint64_t, uint64_t> prev) {
  const uint64_t len = rng.NextBounded(17);
  uint64_t begin = 0;
  switch (rng.NextBounded(6)) {
    case 0:  // adjacent: continue right after the previous interval
      begin = prev.second;
      break;
    case 1:  // overlapping the previous interval
      begin = prev.first + rng.NextBounded(prev.second - prev.first + 1);
      break;
    case 2:  // exact duplicate
      return prev;
    case 3:  // reversed: ignored by both the log and the oracle
      begin = rng.NextBounded(kOracleBytes - 16);
      return {begin + len, begin};
    default:  // fresh position (backwards half the time)
      begin = rng.NextBounded(kOracleBytes - 16);
      break;
  }
  begin = std::min(begin, kOracleBytes - 16);
  return {begin, begin + len};
}

/// Adds `n` drawn intervals to both `log` and `oracle`.
void AddRandom(util::Rng& rng, int n, IntervalLog& log, ByteOracle& oracle) {
  std::pair<uint64_t, uint64_t> iv{0, 0};
  for (int i = 0; i < n; ++i) {
    iv = NextInterval(rng, iv);
    log.Add(iv.first, iv.second);
    oracle.Add(iv.first, iv.second);
    // Draw the next interval relative to a valid (possibly empty) one.
    if (iv.first > iv.second) iv = {iv.second, iv.second};
  }
}

/// Normalizes a copy of `log` (so the original's compaction schedule is
/// untouched) and checks it against the oracle.
void ExpectMatches(const IntervalLog& log, const ByteOracle& oracle) {
  IntervalLog copy = log;
  copy.Normalize();
  EXPECT_EQ(copy.TotalBytes(), oracle.TotalBytes());
  EXPECT_EQ(copy.entries(), oracle.Runs());
}

TEST(IntervalLogTest, CoalescesAdjacentAndIgnoresEmptyIntervals) {
  IntervalLog log;
  log.Add(0, 8);
  log.Add(8, 16);   // adjacent: extends the entry
  log.Add(4, 12);   // inside
  log.Add(20, 20);  // empty
  log.Add(30, 24);  // reversed
  EXPECT_EQ(log.entries(), 1u);
  log.Add(32, 40);
  log.Add(16, 32);  // bridges both entries once normalized
  log.Normalize();
  EXPECT_EQ(log.entries(), 1u);
  EXPECT_EQ(log.TotalBytes(), 40u);
}

TEST(IntervalLogTest, MatchesByteOracleAcrossCompaction) {
  for (uint64_t seed : {1, 2, 3}) {
    util::Rng rng(seed);
    IntervalLog log;
    ByteOracle oracle(kOracleBytes);
    size_t max_runs = 0;
    std::pair<uint64_t, uint64_t> iv{0, 0};
    for (int i = 0; i < 2000; ++i) {
      iv = NextInterval(rng, iv);
      log.Add(iv.first, iv.second);
      oracle.Add(iv.first, iv.second);
      if (iv.first > iv.second) iv = {iv.second, iv.second};
      // Memory stays O(disjoint intervals): compaction fires once the log
      // doubles past its last normalized size.
      max_runs = std::max(max_runs, oracle.Runs());
      ASSERT_LE(log.entries(), 2 * std::max<size_t>(max_runs, 64))
          << "seed " << seed << " op " << i;
      if (i % 97 == 0) ExpectMatches(log, oracle);
    }
    EXPECT_GT(max_runs, 128u) << "sequence never crossed the threshold";
    ExpectMatches(log, oracle);
  }
}

TEST(IntervalLogTest, CompactionBoundsEntriesUnderRewrites) {
  // Random rewrites of one small region: the union collapses to a few
  // runs while appends keep coming, so only compaction bounds the log.
  util::Rng rng(31);
  IntervalLog log;
  ByteOracle oracle(kOracleBytes);
  size_t max_runs = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t begin = rng.NextBounded(4096);
    const uint64_t end = begin + 1 + rng.NextBounded(16);
    log.Add(begin, end);
    oracle.Add(begin, end);
    max_runs = std::max(max_runs, oracle.Runs());
    ASSERT_LE(log.entries(), 2 * std::max<size_t>(max_runs, 64)) << "op " << i;
  }
  ExpectMatches(log, oracle);
}

TEST(IntervalLogTest, EmptyParentAdoptsAnUnsortedChild) {
  IntervalLog child;
  child.Add(100, 110);
  child.Add(0, 10);  // backwards: the child's log is no longer sorted
  child.Add(5, 105);
  IntervalLog parent;
  parent.Append(std::move(child));
  EXPECT_EQ(child.entries(), 0u);
  parent.Normalize();
  EXPECT_EQ(parent.entries(), 1u);
  EXPECT_EQ(parent.TotalBytes(), 110u);
}

TEST(IntervalLogTest, UncoveredByMatchesByteOracle) {
  for (uint64_t seed : {11, 12, 13, 14}) {
    util::Rng rng(seed);
    IntervalLog a, c;
    ByteOracle oa(kOracleBytes), oc(kOracleBytes);
    AddRandom(rng, 1500, a, oa);
    AddRandom(rng, 200 + 300 * static_cast<int>(seed % 4), c, oc);
    a.Normalize();
    c.Normalize();
    EXPECT_EQ(a.UncoveredBy(c), oa.UncoveredBy(oc)) << "seed " << seed;
    EXPECT_EQ(c.UncoveredBy(a), oc.UncoveredBy(oa)) << "seed " << seed;
    EXPECT_EQ(a.UncoveredBy(a), 0u);
    IntervalLog empty;
    EXPECT_EQ(a.UncoveredBy(empty), oa.TotalBytes());
    EXPECT_EQ(empty.UncoveredBy(a), 0u);
  }
}

TEST(IntervalLogTest, MinusMatchesByteOracle) {
  for (uint64_t seed : {15, 16, 17, 18}) {
    util::Rng rng(seed);
    IntervalLog a, c;
    ByteOracle oa(kOracleBytes), oc(kOracleBytes);
    AddRandom(rng, 1500, a, oa);
    AddRandom(rng, 200 + 300 * static_cast<int>(seed % 4), c, oc);
    a.Normalize();
    c.Normalize();
    IntervalLog rest = a.Minus(c);
    // The residue is a normalized log of exactly the uncovered bytes.
    EXPECT_EQ(rest.TotalBytes(), oa.UncoveredBy(oc)) << "seed " << seed;
    EXPECT_EQ(rest.TotalBytes(), a.UncoveredBy(c)) << "seed " << seed;
    EXPECT_EQ(rest.UncoveredBy(a), 0u) << "seed " << seed;
    EXPECT_EQ(rest.UncoveredBy(c), rest.TotalBytes()) << "seed " << seed;
    IntervalLog renormalized = rest;
    renormalized.Normalize();
    EXPECT_TRUE(renormalized.SameEntries(rest)) << "seed " << seed;
    // Runs of the uncovered bytes, from the oracle.
    ByteOracle orest(kOracleBytes);
    for (uint64_t i = 0; i < kOracleBytes; ++i) {
      if (oa.Has(i) && !oc.Has(i)) orest.Add(i, i + 1);
    }
    EXPECT_EQ(rest.entries(), orest.Runs()) << "seed " << seed;
    EXPECT_EQ(a.Minus(a).entries(), 0u);
    IntervalLog empty;
    EXPECT_TRUE(a.Minus(empty).SameEntries(a));
    EXPECT_TRUE(empty.Minus(a).empty());
  }
}

TEST(IntervalLogTest, BlockMergesMatchOracleInEitherOrder) {
  for (uint64_t seed : {21, 22}) {
    util::Rng rng(seed);
    constexpr int kBlocks = 24;
    std::vector<IntervalLog> children(kBlocks);
    ByteOracle oracle(kOracleBytes);
    for (IntervalLog& child : children) {
      AddRandom(rng, 10 + static_cast<int>(rng.NextBounded(150)), child,
                oracle);
    }
    // Forward order into an empty parent (the first merge adopts the
    // child's log) and reverse order into a pre-populated one.
    IntervalLog forward, reverse;
    ByteOracle combined = oracle;  // children plus the reverse parent's own
    AddRandom(rng, 40, reverse, combined);
    for (int b = 0; b < kBlocks; ++b) {
      IntervalLog child = children[b];
      forward.Append(std::move(child));
      EXPECT_EQ(child.entries(), 0u);
    }
    for (int b = kBlocks - 1; b >= 0; --b) {
      reverse.Append(IntervalLog(children[b]));
    }
    ExpectMatches(forward, oracle);
    ExpectMatches(reverse, combined);
    forward.Normalize();
    reverse.Normalize();
    EXPECT_EQ(forward.UncoveredBy(reverse), 0u);
    EXPECT_EQ(reverse.UncoveredBy(forward), combined.UncoveredBy(oracle));
    // A covering log checked against the merged state.
    IntervalLog cover;
    ByteOracle ocover(kOracleBytes);
    AddRandom(rng, 800, cover, ocover);
    cover.Normalize();
    EXPECT_EQ(forward.UncoveredBy(cover), oracle.UncoveredBy(ocover));
    EXPECT_EQ(cover.UncoveredBy(forward), ocover.UncoveredBy(oracle));
  }
}

// --- Negative: scratchpad memcheck ---

TEST_F(SanitizerTest, ScratchpadUseBeforeInitIsReported) {
  ScratchpadShadow shadow(dev_->sanitizer(), 1024, hw_.gpu.scratchpad_bytes);
  shadow.Store(0, 16, /*warp=*/0);
  shadow.Load(64, 16, /*warp=*/0);  // never written
  Violation v = TakeSingle(ViolationCode::kScratchpadUseBeforeInit);
  EXPECT_NE(v.message.find("read before any warp initialized it"),
            std::string::npos)
      << v.message;
}

TEST_F(SanitizerTest, ScratchpadStoreOutOfBoundsIsReported) {
  ScratchpadShadow shadow(dev_->sanitizer(), 1024, hw_.gpu.scratchpad_bytes);
  shadow.Store(1016, 16, /*warp=*/2);  // 8 B past the arena
  Violation v = TakeSingle(ViolationCode::kScratchpadOutOfBounds);
  EXPECT_NE(v.message.find("overruns the 1024 B arena by 8 B"),
            std::string::npos)
      << v.message;
}

TEST_F(SanitizerTest, OversubscribedArenaIsReported) {
  ScratchpadShadow shadow(dev_->sanitizer(), hw_.gpu.scratchpad_bytes + 16,
                          hw_.gpu.scratchpad_bytes);
  Violation v = TakeSingle(ViolationCode::kScratchpadOutOfBounds);
  EXPECT_NE(v.message.find("exceeds the"), std::string::npos) << v.message;
}

// --- Negative: warp racecheck ---

TEST_F(SanitizerTest, CrossWarpRaceIsReported) {
  ScratchpadShadow shadow(dev_->sanitizer(), 1024, hw_.gpu.scratchpad_bytes);
  shadow.Store(128, 8, /*warp=*/1);
  shadow.Store(128, 8, /*warp=*/5);  // same word, no sync in between
  Violation v = TakeSingle(ViolationCode::kScratchpadRace);
  EXPECT_EQ(v.warp, 5u);
  EXPECT_NE(v.message.find("warps 1 and 5"), std::string::npos) << v.message;
}

TEST_F(SanitizerTest, SyncRangeClearsTheRaceWindow) {
  ScratchpadShadow shadow(dev_->sanitizer(), 1024, hw_.gpu.scratchpad_bytes);
  shadow.Store(128, 8, /*warp=*/1);
  shadow.SyncRange(128, 8);
  shadow.Store(128, 8, /*warp=*/5);  // now an ordinary handover
  EXPECT_TRUE(dev_->sanitizer()->CheckOk().ok());
}

// --- Negative: SWWC lock protocol ---

TEST_F(SanitizerTest, FlushByNonHolderIsReported) {
  ScratchpadShadow shadow(dev_->sanitizer(), 1024, hw_.gpu.scratchpad_bytes);
  shadow.AcquireLock(/*lock=*/7, /*warp=*/2);
  shadow.NoteFlush(/*lock=*/7, /*warp=*/4);  // warp 4 does not hold lock 7
  shadow.ReleaseLock(/*lock=*/7, /*warp=*/2);
  Violation v = TakeSingle(ViolationCode::kLockProtocol);
  EXPECT_NE(v.message.find("flushed by a warp that does not hold"),
            std::string::npos)
      << v.message;
}

TEST_F(SanitizerTest, LockTableGrowsToHighLockIds) {
  ScratchpadShadow shadow(dev_->sanitizer(), 1024, hw_.gpu.scratchpad_bytes);
  shadow.AcquireLock(/*lock=*/0, /*warp=*/1);
  shadow.NoteFlush(/*lock=*/2047, /*warp=*/1);  // never acquired: beyond
                                                // the table, not held
  shadow.AcquireLock(/*lock=*/2047, /*warp=*/3);  // grows the table
  shadow.NoteFlush(/*lock=*/2047, /*warp=*/3);
  shadow.NoteFlush(/*lock=*/0, /*warp=*/1);  // lock 0 survived the growth
  shadow.AcquireLock(/*lock=*/0, /*warp=*/2);  // still held by warp 1
  shadow.ReleaseLock(/*lock=*/2047, /*warp=*/3);
  shadow.ReleaseLock(/*lock=*/2047, /*warp=*/3);  // no longer held
  shadow.ReleaseLock(/*lock=*/0, /*warp=*/1);
  std::vector<Violation> vs = dev_->sanitizer()->TakeViolations();
  ASSERT_EQ(vs.size(), 3u);
  for (const Violation& v : vs) {
    EXPECT_EQ(v.code, ViolationCode::kLockProtocol) << v.message;
  }
  EXPECT_NE(vs[0].message.find("buffer 2047 flushed by a warp that does not "
                               "hold its lock (holder: none)"),
            std::string::npos)
      << vs[0].message;
  EXPECT_NE(vs[1].message.find("lock 0 still held by warp 1"),
            std::string::npos)
      << vs[1].message;
  EXPECT_EQ(vs[2].warp, 3u);
  EXPECT_NE(vs[2].message.find("released buffer lock 2047 it does not hold"),
            std::string::npos)
      << vs[2].message;
}

TEST_F(SanitizerTest, DoubleAcquireIsReported) {
  ScratchpadShadow shadow(dev_->sanitizer(), 1024, hw_.gpu.scratchpad_bytes);
  shadow.AcquireLock(3, /*warp=*/1);
  shadow.AcquireLock(3, /*warp=*/1);
  shadow.ReleaseLock(3, /*warp=*/1);
  Violation v = TakeSingle(ViolationCode::kLockProtocol);
  EXPECT_NE(v.message.find("re-acquired"), std::string::npos) << v.message;
}

// --- Negative: launch counter lint ---

TEST_F(SanitizerTest, TupleCountMismatchIsReported) {
  dev_->Launch({.name = "short"}, [&](exec::KernelContext& ctx) {
    ctx.ExpectTuples(100, sizeof(Tuple));
    ctx.AddTuples(50);  // dropped half the input
    ctx.Charge(1);
  });
  std::vector<Violation> vs = dev_->sanitizer()->TakeViolations();
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs.front().code, ViolationCode::kCounterInvariant);
  EXPECT_NE(vs.front().message.find("processed 50 tuples, expected 100"),
            std::string::npos)
      << vs.front().message;
}

TEST_F(SanitizerTest, ZeroIssueSlotsIsReported) {
  dev_->Launch({.name = "freebie"}, [&](exec::KernelContext& ctx) {
    ctx.ExpectTuples(10, 0);
    ctx.AddTuples(10);  // work with no compute charged
  });
  Violation v = TakeSingle(ViolationCode::kCounterInvariant);
  EXPECT_NE(v.message.find("zero issue slots"), std::string::npos)
      << v.message;
}

// --- Clean runs: the instrumented partitioners across the fanout range ---

class CleanRunTest : public ::testing::TestWithParam<uint32_t> {};

PartitionRun PartitionCleanly(partition::GpuPartitioner& algo,
                              uint32_t bits, uint64_t n) {
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(64);
  exec::Device dev(hw, /*sanitize=*/true);
  data::WorkloadConfig cfg;
  cfg.r_tuples = n;
  cfg.s_tuples = n;
  auto wl = data::GenerateWorkload(dev.allocator(), cfg);
  CHECK_OK(wl.status());
  ColumnInput input = ColumnInput::Of(wl->r);
  RadixConfig radix{0, bits};
  PartitionLayout layout = partition::CpuPrefixSum(dev, input, radix, 8);
  auto out = dev.allocator().AllocateCpu(layout.padded_tuples() *
                                         sizeof(Tuple));
  CHECK_OK(out.status());
  PartitionRun run = algo.PartitionColumns(dev, input, layout, *out, {});
  // Consume findings before teardown (Device CHECK-fails on leftovers) so
  // a violation surfaces as a test failure with its message instead.
  std::vector<Violation> vs = dev.sanitizer()->TakeViolations();
  EXPECT_TRUE(vs.empty()) << vs.size() << " violation(s), first: "
                          << vs.front().message;
  return run;
}

TEST_P(CleanRunTest, SharedGpuStaysQuiet) {
  partition::SharedPartitioner shared;
  PartitionCleanly(shared, GetParam(), 100000);
}

TEST_P(CleanRunTest, HierarchicalGpuStaysQuiet) {
  partition::HierarchicalPartitioner hierarchical;
  PartitionCleanly(hierarchical, GetParam(), 100000);
}

// Fanouts 4, 512, 2048: bits 2 / 9 / 11 (the Figure 18 sweep endpoints and
// the knee where SwwcBufferTuples drops to 2 tuples per buffer).
INSTANTIATE_TEST_SUITE_P(Fanouts, CleanRunTest,
                         ::testing::Values(2u, 9u, 11u),
                         [](const auto& info) {
                           return "fanout" +
                                  std::to_string(1u << info.param);
                         });

// --- Figure 18b regression: tuples per write transaction ---

TEST(Figure18bRegression, SharedTuplesPerTransactionAtLowFanout) {
  // Fanout 4: 1024-tuple buffers flush as full 128 B transactions carrying
  // 8 tuples each; only per-slice tail flushes fall short.
  partition::SharedPartitioner shared;
  PartitionRun run = PartitionCleanly(shared, /*bits=*/2, 100000);
  EXPECT_GE(run.TuplesPerWriteTxn(), 7.0) << run.TuplesPerWriteTxn();
  EXPECT_LE(run.TuplesPerWriteTxn(), 8.05) << run.TuplesPerWriteTxn();
}

TEST(Figure18bRegression, SharedTuplesPerTransactionAtFanout2048) {
  // Fanout 2048: SwwcBufferTuples caps the buffer at 2 tuples (32 B), so
  // every flush underfills the 128 B transaction — the write-combining
  // collapse of Figure 18b.
  partition::SharedPartitioner shared;
  PartitionRun run = PartitionCleanly(shared, /*bits=*/11, 100000);
  EXPECT_GE(run.TuplesPerWriteTxn(), 1.4) << run.TuplesPerWriteTxn();
  EXPECT_LE(run.TuplesPerWriteTxn(), 2.05) << run.TuplesPerWriteTxn();
}

}  // namespace
}  // namespace triton::sanitizer
