// Parallel block executor tests: simulated thread blocks run on host
// worker threads, and the determinism contract says every observable —
// partition contents, join checksums, every PerfCounters field, sanitizer
// violation provenance, simulated time — is bit-identical for any thread
// count. Each scenario runs at 1, 2 and 8 threads and is compared against
// the serial baseline field by field.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/triton_join.h"
#include "data/generator.h"
#include "exec/block_executor.h"
#include "exec/device.h"
#include "hash/perfect_table.h"
#include "join/common.h"
#include "join/cpu_partitioned_join.h"
#include "join/no_partitioning_join.h"
#include "join/scratch_join.h"
#include "mem/allocator.h"
#include "partition/hierarchical.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "sanitizer/sanitizer.h"
#include "sched/coprocess_scheduler.h"
#include "sim/hw_spec.h"
#include "sim/perf_counters.h"
#include "sim/tlb.h"
#include "util/random.h"

namespace triton {
namespace {

using partition::ColumnInput;
using partition::PartitionLayout;
using partition::PartitionRun;
using partition::RadixConfig;
using partition::Tuple;
using sanitizer::Violation;
using sanitizer::ViolationCode;

/// Row digest of CoProcessingIsThreadCountInvariant's join; see there.
constexpr uint64_t kCoProcessRowDigest = 8741557957022970ull;

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

/// Field-by-field equality over the full counter record: any drift between
/// thread counts is a determinism bug, not noise.
void ExpectCountersEq(const sim::PerfCounters& a, const sim::PerfCounters& b) {
  EXPECT_EQ(a.gpu_mem_read, b.gpu_mem_read);
  EXPECT_EQ(a.gpu_mem_write, b.gpu_mem_write);
  EXPECT_EQ(a.gpu_mem_random_write, b.gpu_mem_random_write);
  EXPECT_EQ(a.link_read_payload, b.link_read_payload);
  EXPECT_EQ(a.link_read_physical, b.link_read_physical);
  EXPECT_EQ(a.link_write_payload, b.link_write_payload);
  EXPECT_EQ(a.link_write_physical, b.link_write_physical);
  EXPECT_EQ(a.link_read_txns, b.link_read_txns);
  EXPECT_EQ(a.link_write_txns, b.link_write_txns);
  EXPECT_EQ(a.cpu_mem_read, b.cpu_mem_read);
  EXPECT_EQ(a.cpu_mem_write, b.cpu_mem_write);
  EXPECT_EQ(a.gpu_tlb_lookups, b.gpu_tlb_lookups);
  EXPECT_EQ(a.gpu_tlb_misses, b.gpu_tlb_misses);
  EXPECT_EQ(a.l3_hits, b.l3_hits);
  EXPECT_EQ(a.iommu_requests, b.iommu_requests);
  EXPECT_EQ(a.iommu_walks, b.iommu_walks);
  EXPECT_EQ(a.issue_slots, b.issue_slots);
  EXPECT_EQ(a.tuples, b.tuples);
}

/// Forwards every allocator callback to the device's sanitizer and keeps a
/// copy of the last freed buffer of `capture_bytes` bytes: the join frees
/// its result buffer before returning, so this is how a test reads the
/// materialized rows.
class ResultCapture : public mem::AllocationObserver {
 public:
  ResultCapture(sanitizer::DeviceSanitizer* san, uint64_t capture_bytes)
      : san_(san), capture_bytes_(capture_bytes) {}

  void OnAlloc(const mem::Buffer& buffer) override {
    if (san_ != nullptr) san_->OnAlloc(buffer);
  }
  void OnFree(const mem::Buffer& buffer) override {
    if (buffer.size() == capture_bytes_) {
      const auto* rows = buffer.as<hash::Entry>();
      captured_.assign(rows, rows + capture_bytes_ / sizeof(hash::Entry));
    }
    if (san_ != nullptr) san_->OnFree(buffer);
  }
  void OnArenaBegin(uint64_t id, uint64_t base_addr) override {
    if (san_ != nullptr) san_->OnArenaBegin(id, base_addr);
  }
  void OnArenaEnd(uint64_t id) override {
    if (san_ != nullptr) san_->OnArenaEnd(id);
  }
  void OnArenaViolation(uint64_t id, const std::string& message) override {
    if (san_ != nullptr) san_->OnArenaViolation(id, message);
  }

  const std::vector<hash::Entry>& captured() const { return captured_; }

 private:
  sanitizer::DeviceSanitizer* san_;
  uint64_t capture_bytes_;
  std::vector<hash::Entry> captured_;
};

// --- BlockExecutor unit tests ---

TEST(BlockExecutorTest, RunsEveryBlockExactlyOnce) {
  ThreadsGuard guard(8);
  std::vector<std::atomic<int>> hits(100);
  exec::BlockExecutor::Global().Run(100, [&](uint32_t b) { ++hits[b]; });
  for (uint32_t b = 0; b < 100; ++b) {
    EXPECT_EQ(hits[b].load(), 1) << "block " << b;
  }
}

TEST(BlockExecutorTest, SetThreadsResizesThePool) {
  ThreadsGuard guard(8);
  EXPECT_EQ(exec::BlockExecutor::Global().threads(), 8u);
  exec::BlockExecutor::Global().SetThreads(2);
  EXPECT_EQ(exec::BlockExecutor::Global().threads(), 2u);
  std::atomic<int> total{0};
  exec::BlockExecutor::Global().Run(17, [&](uint32_t) { ++total; });
  EXPECT_EQ(total.load(), 17);
}

TEST(BlockExecutorTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadsGuard guard(8);
  EXPECT_THROW(
      exec::BlockExecutor::Global().Run(50,
                                        [&](uint32_t b) {
                                          if (b == 37) {
                                            throw std::runtime_error("b37");
                                          }
                                        }),
      std::runtime_error);
  // The pool drained cleanly and accepts the next batch.
  std::atomic<int> total{0};
  exec::BlockExecutor::Global().Run(20, [&](uint32_t) { ++total; });
  EXPECT_EQ(total.load(), 20);
}

// --- Block-ordered reduction contract ---
//
// Blocks never touch the shared TLB or sanitizer; the launching thread
// reduces them in block order while later blocks run.

// 16 blocks of random accesses over a 16 MiB CPU buffer on a GPU whose L2
// TLB holds 256 ranges of 8 KiB: hits and misses depend on replay order,
// and the launch's counters must equal a standalone TlbSimulator fed the
// same addresses in block order, in either mode and at any thread count.
TEST(BlockReductionContractTest, ReplayMatchesStandaloneTlbInBlockOrder) {
  constexpr uint32_t kBlocks = 16;
  constexpr uint32_t kAccessesPerBlock = 500;
  const sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(4096);
  const uint64_t buf_bytes = 16ull << 20;
  ASSERT_GT(buf_bytes / hw.tlb.l2_entry_range,
            hw.tlb.l2_coverage / hw.tlb.l2_entry_range);
  auto offset_of = [&](uint32_t b, uint32_t i) {
    uint64_t x = (uint64_t{b} << 32 | i) * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return (x % (buf_bytes / 16)) * 16;
  };

  auto expected_in = [&](const std::vector<uint32_t>& block_order,
                         uint64_t base) {
    sim::TlbSimulator tlb(hw.tlb);
    sim::PerfCounters c;
    for (uint32_t b : block_order) {
      for (uint32_t i = 0; i < kAccessesPerBlock; ++i) {
        tlb.Access(base + offset_of(b, i), sim::PageLocation::kCpuMem, &c);
      }
    }
    return c;
  };

  for (bool in_order : {false, true}) {
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << (in_order ? "in order" : "any order") << ", threads "
                   << threads);
      ThreadsGuard guard(threads);
      exec::Device dev(hw, /*sanitize=*/true);
      auto buf = dev.allocator().AllocateCpu(buf_bytes);
      ASSERT_TRUE(buf.ok());
      auto body = [&](exec::KernelContext& sub, uint32_t b) {
        for (uint32_t i = 0; i < kAccessesPerBlock; ++i) {
          sub.ReadRand(*buf, offset_of(b, i), 16);
        }
      };
      exec::KernelRecord rec =
          dev.Launch({.name = "replay"}, [&](exec::KernelContext& ctx) {
            if (in_order) {
              ctx.ForEachBlockInOrder(kBlocks, body);
            } else {
              ctx.ForEachBlock(kBlocks, body);
            }
          });
      std::vector<uint32_t> order(kBlocks);
      for (uint32_t b = 0; b < kBlocks; ++b) order[b] = b;
      const sim::PerfCounters want = expected_in(order, buf->base_addr());
      EXPECT_EQ(rec.counters.gpu_tlb_lookups, want.gpu_tlb_lookups);
      EXPECT_EQ(rec.counters.gpu_tlb_misses, want.gpu_tlb_misses);
      EXPECT_EQ(rec.counters.l3_hits, want.l3_hits);
      EXPECT_EQ(rec.counters.iommu_requests, want.iommu_requests);
      EXPECT_EQ(rec.counters.iommu_walks, want.iommu_walks);
      // The order matters: the same accesses replayed in reverse block
      // order give different counters.
      std::reverse(order.begin(), order.end());
      const sim::PerfCounters reversed =
          expected_in(order, buf->base_addr());
      EXPECT_NE(reversed.gpu_tlb_misses + reversed.l3_hits,
                want.gpu_tlb_misses + want.l3_hits);
      EXPECT_TRUE(dev.sanitizer()->CheckOk().ok());
    }
  }
}

// In-order blocks run strictly one after another: each one checks and
// bumps a plain counter, which TSan would report if two blocks overlapped
// or a block missed the previous one's write. Each block sleeps, so idle
// workers would claim blocks if the order were not enforced.
TEST(BlockReductionContractTest, InOrderBlocksRunOneAfterAnother) {
  ThreadsGuard guard(8);
  exec::Device dev(sim::HwSpec::Ac922NvLink().Scaled(64));
  constexpr uint32_t kBlocks = 200;
  uint32_t next = 0;
  std::vector<uint32_t> seen(kBlocks, kBlocks);
  dev.Launch({.name = "in_order"}, [&](exec::KernelContext& ctx) {
    ctx.ForEachBlockInOrder(kBlocks, [&](exec::KernelContext&, uint32_t b) {
      seen[b] = next;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      ++next;
    });
  });
  EXPECT_EQ(next, kBlocks);
  for (uint32_t b = 0; b < kBlocks; ++b) EXPECT_EQ(seen[b], b);
}

// A throwing block, in either mode, is rethrown only after every block ran
// and was reduced; with two throwing blocks the lower block's exception
// wins; the pool then runs the next batch.
void ExpectRethrowAfterDrain(uint32_t threads) {
  SCOPED_TRACE(testing::Message() << "threads " << threads);
  ThreadsGuard guard(threads);
  constexpr uint32_t kBlocks = 50;
  for (auto order : {exec::BlockExecutor::Order::kAny,
                     exec::BlockExecutor::Order::kSequential}) {
    std::atomic<uint32_t> ran{0};
    std::vector<uint32_t> reduced;
    try {
      exec::BlockExecutor::Global().Run(
          kBlocks,
          [&](uint32_t b) {
            ++ran;
            if (b == 12 || b == 37) {
              throw std::runtime_error("block " + std::to_string(b));
            }
          },
          [&](uint32_t b) { reduced.push_back(b); }, order);
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "block 12");
    }
    EXPECT_EQ(ran.load(), kBlocks);
    ASSERT_EQ(reduced.size(), kBlocks);
    for (uint32_t b = 0; b < kBlocks; ++b) EXPECT_EQ(reduced[b], b);
    std::atomic<uint32_t> total{0};
    exec::BlockExecutor::Global().Run(
        20, [&](uint32_t) { ++total; }, {}, order);
    EXPECT_EQ(total.load(), 20u);
  }
  // The same through a kernel's block loops.
  exec::Device dev(sim::HwSpec::Ac922NvLink().Scaled(64), /*sanitize=*/false);
  auto throws_at_5 = [](exec::KernelContext&, uint32_t b) {
    if (b == 5) throw std::runtime_error("block 5");
  };
  for (bool in_order : {false, true}) {
    EXPECT_THROW(dev.Launch({.name = "throws"},
                            [&](exec::KernelContext& ctx) {
                              if (in_order) {
                                ctx.ForEachBlockInOrder(kBlocks, throws_at_5);
                              } else {
                                ctx.ForEachBlock(kBlocks, throws_at_5);
                              }
                            }),
                 std::runtime_error);
    uint32_t blocks_run = 0;
    dev.Launch({.name = "next"}, [&](exec::KernelContext& ctx) {
      ctx.ForEachBlockInOrder(kBlocks, [&](exec::KernelContext&, uint32_t) {
        ++blocks_run;
      });
    });
    EXPECT_EQ(blocks_run, kBlocks);
  }
}

TEST(BlockReductionContractTest, ThrowingBlockRethrowsAfterPoolDrains) {
  ExpectRethrowAfterDrain(1);
  ExpectRethrowAfterDrain(8);
}

// --- Bit-identity scenarios ---

class ParallelIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { hw_ = sim::HwSpec::Ac922NvLink().Scaled(64); }

  data::Workload MakeWorkload(mem::Allocator& alloc, uint64_t r,
                              uint64_t s) {
    data::WorkloadConfig cfg;
    cfg.r_tuples = r;
    cfg.s_tuples = s;
    auto wl = data::GenerateWorkload(alloc, cfg);
    CHECK_OK(wl.status());
    return std::move(wl).value();
  }

  /// Output of one partition scenario: data-slice contents in layout order
  /// plus all accounting.
  struct PartResult {
    std::vector<Tuple> tuples;
    sim::PerfCounters counters;
    uint64_t flushes = 0;
    double tuples_per_txn = 0.0;
    double elapsed = 0.0;
  };

  PartResult RunPartition(partition::GpuPartitioner& algo, uint32_t threads,
                          uint64_t n, uint32_t bits, uint32_t blocks) {
    ThreadsGuard guard(threads);
    exec::Device dev(hw_, /*sanitize=*/true);
    auto wl = MakeWorkload(dev.allocator(), n, n);
    ColumnInput input = ColumnInput::Of(wl.r);
    RadixConfig radix{0, bits};
    PartitionLayout layout =
        partition::GpuPrefixSum(dev, input, radix, blocks);
    auto out = dev.allocator().AllocateCpu(layout.padded_tuples() *
                                           sizeof(Tuple));
    CHECK_OK(out.status());
    PartitionRun run = algo.PartitionColumns(dev, input, layout, *out, {});

    PartResult res;
    const Tuple* rows = out->as<Tuple>();
    for (uint32_t p = 0; p < layout.fanout(); ++p) {
      layout.ForEachSlice(p, [&](uint64_t begin, uint64_t count) {
        res.tuples.insert(res.tuples.end(), rows + begin,
                          rows + begin + count);
      });
    }
    res.counters = run.record.counters;
    res.flushes = run.flushes;
    res.tuples_per_txn = run.TuplesPerWriteTxn();
    res.elapsed = run.Elapsed();
    std::vector<Violation> vs = dev.sanitizer()->TakeViolations();
    EXPECT_TRUE(vs.empty()) << vs.size() << " violation(s) at threads "
                            << threads << ", first: " << vs.front().message;
    return res;
  }

  void ExpectPartResultEq(const PartResult& a, const PartResult& b) {
    ASSERT_EQ(a.tuples.size(), b.tuples.size());
    for (size_t i = 0; i < a.tuples.size(); ++i) {
      ASSERT_EQ(a.tuples[i].key, b.tuples[i].key) << "tuple " << i;
      ASSERT_EQ(a.tuples[i].value, b.tuples[i].value) << "tuple " << i;
    }
    ExpectCountersEq(a.counters, b.counters);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.tuples_per_txn, b.tuples_per_txn);  // Figure 18b metric
    EXPECT_EQ(a.elapsed, b.elapsed);
  }

  /// Runs `prefix_sum(dev, input, radix, blocks)` over the keys of an
  /// n-tuple relation at 1, 2 and 8 threads: the layouts and the recorded
  /// counters must be identical, and every slice (p, b) must hold the
  /// number of block b's tuples [b * chunk, (b + 1) * chunk) in
  /// partition p.
  template <typename PrefixSum>
  void ExpectPrefixSumIsThreadCountInvariant(PrefixSum&& prefix_sum,
                                             uint64_t n, uint32_t blocks) {
    SCOPED_TRACE(testing::Message() << n << " tuples, " << blocks
                                    << " blocks");
    const RadixConfig radix{0, 6};
    auto run_once = [&](uint32_t threads) {
      ThreadsGuard guard(threads);
      exec::Device dev(hw_, /*sanitize=*/true);
      auto wl = MakeWorkload(dev.allocator(), n, n);
      ColumnInput input = ColumnInput::Of(wl.r);
      dev.ClearTrace();
      PartitionLayout layout = prefix_sum(dev, input, radix, blocks);
      const uint64_t chunk = (n + blocks - 1) / blocks;
      std::vector<std::vector<uint64_t>> expected(
          blocks, std::vector<uint64_t>(radix.fanout(), 0));
      for (uint64_t i = 0; i < n; ++i) {
        ++expected[i / chunk][radix.PartitionOf(wl.r.keys()[i])];
      }
      for (uint32_t b = 0; b < blocks; ++b) {
        for (uint32_t p = 0; p < radix.fanout(); ++p) {
          EXPECT_EQ(layout.SliceSize(p, b), expected[b][p])
              << "partition " << p << " block " << b;
        }
      }
      sim::PerfCounters counters = dev.trace().back().counters;
      return std::make_pair(layout, counters);
    };
    auto [layout1, counters1] = run_once(1);
    for (uint32_t threads : {2u, 8u}) {
      auto [layout_t, counters_t] = run_once(threads);
      ASSERT_EQ(layout_t.fanout(), layout1.fanout());
      ASSERT_EQ(layout_t.num_blocks(), layout1.num_blocks());
      EXPECT_EQ(layout_t.padded_tuples(), layout1.padded_tuples());
      for (uint32_t p = 0; p < layout1.fanout(); ++p) {
        for (uint32_t b = 0; b < layout1.num_blocks(); ++b) {
          EXPECT_EQ(layout_t.SliceBegin(p, b), layout1.SliceBegin(p, b));
          EXPECT_EQ(layout_t.SliceSize(p, b), layout1.SliceSize(p, b));
        }
      }
      ExpectCountersEq(counters1, counters_t);
    }
  }

  struct JoinResult {
    uint64_t matches = 0;
    uint64_t checksum = 0;
    sim::PerfCounters totals;
    double elapsed = 0.0;
    /// Materialized result rows, in result-buffer order.
    std::vector<Tuple> rows;
  };

  /// Runs a materializing join over a PK/FK workload with |R| = r and
  /// |S| = s and captures its result rows. |R| != |S| keeps the result the
  /// only freed buffer of |S| x 16 bytes. At one thread the sorted rows
  /// must be the reference pairs.
  template <typename JoinFn>
  JoinResult RunJoin(uint32_t threads, uint64_t r, uint64_t s,
                     JoinFn&& make_join) {
    ThreadsGuard guard(threads);
    exec::Device dev(hw_, /*sanitize=*/true);
    ResultCapture capture(dev.sanitizer(), s * sizeof(Tuple));
    dev.allocator().set_observer(&capture);
    auto wl = MakeWorkload(dev.allocator(), r, s);
    auto join = make_join();
    auto run = join.Run(dev, wl.r, wl.s);
    CHECK_OK(run.status());
    JoinResult res;
    res.matches = run->matches;
    res.checksum = run->checksum;
    res.totals = run->totals;
    res.elapsed = run->elapsed;
    res.rows = capture.captured();
    EXPECT_EQ(res.matches, s);
    if (threads == 1) ExpectReferenceRows(wl, res.rows);
    std::vector<Violation> vs = dev.sanitizer()->TakeViolations();
    EXPECT_TRUE(vs.empty()) << vs.size() << " violation(s) at threads "
                            << threads << ", first: " << vs.front().message;
    dev.allocator().set_observer(dev.sanitizer());
    return res;
  }

  /// PK/FK reference: every probe tuple pairs with the build tuple of its
  /// key, as <build payload, probe payload>; compared as sorted multisets.
  static void ExpectReferenceRows(const data::Workload& wl,
                                  std::vector<Tuple> rows) {
    std::vector<data::Value> payload_of(wl.r.rows() + 1);
    for (uint64_t i = 0; i < wl.r.rows(); ++i) {
      payload_of[wl.r.keys()[i]] = wl.r.payload(0)[i];
    }
    std::vector<Tuple> ref;
    for (uint64_t j = 0; j < wl.s.rows(); ++j) {
      ref.push_back(Tuple{payload_of[wl.s.keys()[j]], wl.s.payload(0)[j]});
    }
    auto less = [](const Tuple& a, const Tuple& b) {
      return a.key != b.key ? a.key < b.key : a.value < b.value;
    };
    std::sort(ref.begin(), ref.end(), less);
    std::sort(rows.begin(), rows.end(), less);
    ASSERT_EQ(rows.size(), ref.size());
    uint64_t wrong = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      wrong += rows[i].key != ref[i].key || rows[i].value != ref[i].value;
    }
    EXPECT_EQ(wrong, 0u) << "result rows are not the reference pairs";
  }

  void ExpectJoinResultEq(const JoinResult& a, const JoinResult& b) {
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.checksum, b.checksum);
    ExpectCountersEq(a.totals, b.totals);
    EXPECT_EQ(a.elapsed, b.elapsed);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t i = 0; i < a.rows.size(); ++i) {
      ASSERT_EQ(a.rows[i].key, b.rows[i].key) << "row " << i;
      ASSERT_EQ(a.rows[i].value, b.rows[i].value) << "row " << i;
    }
  }

  sim::HwSpec hw_;
};

TEST_F(ParallelIdentityTest, SharedPartitionerIsThreadCountInvariant) {
  partition::SharedPartitioner shared;
  PartResult serial = RunPartition(shared, 1, 60000, 9, 8);
  for (uint32_t threads : {2u, 8u}) {
    PartResult par = RunPartition(shared, threads, 60000, 9, 8);
    ExpectPartResultEq(serial, par);
  }
}

TEST_F(ParallelIdentityTest, HierarchicalPartitionerIsThreadCountInvariant) {
  partition::HierarchicalPartitioner hier;
  PartResult serial = RunPartition(hier, 1, 60000, 9, 8);
  for (uint32_t threads : {2u, 8u}) {
    PartResult par = RunPartition(hier, threads, 60000, 9, 8);
    ExpectPartResultEq(serial, par);
  }
}

// One block per SM, as TritonJoin launches pass 1: far more blocks than
// worker threads, so every worker runs many blocks.
TEST_F(ParallelIdentityTest,
       SharedPartitionerAtOneBlockPerSmIsThreadCountInvariant) {
  partition::SharedPartitioner shared;
  const uint32_t blocks = hw_.gpu.num_sms;
  ASSERT_GT(blocks, 8u);
  PartResult serial = RunPartition(shared, 1, 96 * 1024, 6, blocks);
  for (uint32_t threads : {2u, 8u}) {
    PartResult par = RunPartition(shared, threads, 96 * 1024, 6, blocks);
    ExpectPartResultEq(serial, par);
  }
}

// The block count Hierarchical recommends for this GPU at fanout 128.
TEST_F(ParallelIdentityTest,
       HierarchicalPartitionerAtRecommendedBlocksIsThreadCountInvariant) {
  partition::HierarchicalPartitioner hier;
  const uint32_t blocks = partition::HierarchicalRecommendedBlocks(
      {}, hw_, exec::Device(hw_).allocator().gpu_free(), /*fanout=*/128);
  ASSERT_GT(blocks, 8u);
  PartResult serial = RunPartition(hier, 1, 96 * 1024, 7, blocks);
  for (uint32_t threads : {2u, 8u}) {
    PartResult par = RunPartition(hier, threads, 96 * 1024, 7, blocks);
    ExpectPartResultEq(serial, par);
  }
}

TEST_F(ParallelIdentityTest, GpuPrefixSumIsThreadCountInvariant) {
  ExpectPrefixSumIsThreadCountInvariant(
      [](exec::Device& dev, const ColumnInput& input, RadixConfig radix,
         uint32_t blocks) {
        return partition::GpuPrefixSum(dev, input, radix, blocks);
      },
      50000, 8);
}

// The CPU prefix sum's histogram blocks run on the pool as well. Five
// tuples over eight blocks leaves blocks without input.
TEST_F(ParallelIdentityTest, CpuPrefixSumIsThreadCountInvariant) {
  auto cpu_prefix_sum = [](exec::Device& dev, const ColumnInput& input,
                           RadixConfig radix, uint32_t blocks) {
    return partition::CpuPrefixSum(dev, input, radix, blocks);
  };
  ExpectPrefixSumIsThreadCountInvariant(cpu_prefix_sum, 50000, 8);
  ExpectPrefixSumIsThreadCountInvariant(cpu_prefix_sum, 5, 8);
}

TEST_F(ParallelIdentityTest, TritonJoinIsThreadCountInvariant) {
  auto make = [] {
    return core::TritonJoin({.scheme = join::HashScheme::kBucketChaining});
  };
  JoinResult serial = RunJoin(1, 75000, 100000, make);
  for (uint32_t threads : {2u, 8u}) {
    JoinResult par = RunJoin(threads, 75000, 100000, make);
    ExpectJoinResultEq(serial, par);
  }
}

TEST_F(ParallelIdentityTest,
       TritonJoinWithGpuPrefixSumIsThreadCountInvariant) {
  auto make = [] {
    return core::TritonJoin({.scheme = join::HashScheme::kBucketChaining,
                             .gpu_prefix_sum = true});
  };
  JoinResult serial = RunJoin(1, 60000, 80000, make);
  for (uint32_t threads : {2u, 8u}) {
    JoinResult par = RunJoin(threads, 60000, 80000, make);
    ExpectJoinResultEq(serial, par);
  }
}

TEST_F(ParallelIdentityTest, CpuPartitionedJoinIsThreadCountInvariant) {
  auto make = [] {
    return join::CpuPartitionedJoin(join::CpuPartitionedJoinConfig{});
  };
  JoinResult serial = RunJoin(1, 60000, 80000, make);
  for (uint32_t threads : {2u, 8u}) {
    JoinResult par = RunJoin(threads, 60000, 80000, make);
    ExpectJoinResultEq(serial, par);
  }
}

// No GPU cache: every pair spills, so the second-pass prefix sum also
// copies the pair into GPU staging memory.
TEST_F(ParallelIdentityTest, UncachedTritonJoinIsThreadCountInvariant) {
  auto make = [] { return core::TritonJoin({.cache_bytes = 0}); };
  JoinResult serial = RunJoin(1, 48 * 1024, 64 * 1024, make);
  for (uint32_t threads : {2u, 8u}) {
    JoinResult par = RunJoin(threads, 48 * 1024, 64 * 1024, make);
    ExpectJoinResultEq(serial, par);
  }
}

// Materialized results go through the shared join kernel's bulk stores.
TEST_F(ParallelIdentityTest,
       MaterializingCpuPartitionedJoinIsThreadCountInvariant) {
  auto make = [] {
    return join::CpuPartitionedJoin(
        {.result_mode = join::ResultMode::kMaterialize});
  };
  JoinResult serial = RunJoin(1, 48 * 1024, 64 * 1024, make);
  for (uint32_t threads : {2u, 8u}) {
    JoinResult par = RunJoin(threads, 48 * 1024, 64 * 1024, make);
    ExpectJoinResultEq(serial, par);
  }
}

// Co-processing at a mid split: GPU pairs run the Triton pair body, CPU
// pairs build one table per pair and probe it with one block per pass-1
// slice of S_i. The CPU side reduces its slices in storage order, a
// deterministic order that neither the thread count nor the sorted
// reference would reveal, so the row order is pinned as a digest (the rows
// of a join that probes each CPU pair in one block).
TEST_F(ParallelIdentityTest, CoProcessingIsThreadCountInvariant) {
  auto make = [] { return sched::CoProcessScheduler({.split_ratio = 0.5}); };
  JoinResult serial = RunJoin(1, 120000, 160000, make);
  // FNV-1a over the rows' keys and values, in result order.
  uint64_t digest = 14695981039346656037ull;
  for (const Tuple& t : serial.rows) {
    for (int64_t word : {t.key, t.value}) {
      digest = (digest ^ static_cast<uint64_t>(word)) * 1099511628211ull;
    }
  }
  EXPECT_EQ(digest, kCoProcessRowDigest);
  for (uint32_t threads : {2u, 8u}) {
    JoinResult par = RunJoin(threads, 120000, 160000, make);
    ExpectJoinResultEq(serial, par);
  }
}

// The staged emit path used by the parallel join launches must agree with
// the direct materializing path tuple for tuple.
TEST_F(ParallelIdentityTest, JoinSlicesEmitMatchesJoinSlices) {
  exec::Device dev(hw_, /*sanitize=*/false);
  auto wl = MakeWorkload(dev.allocator(), 5000, 5000);
  // Lay both relations out as single slices of their row buffers.
  auto rows = dev.allocator().AllocateCpu(2 * 5000 * sizeof(Tuple));
  ASSERT_TRUE(rows.ok());
  Tuple* data = rows->as<Tuple>();
  const data::Key* r_keys = wl.r.key_buffer().as<data::Key>();
  const data::Value* r_vals = wl.r.payload_buffer(0).as<data::Value>();
  const data::Key* s_keys = wl.s.key_buffer().as<data::Key>();
  const data::Value* s_vals = wl.s.payload_buffer(0).as<data::Value>();
  for (uint64_t i = 0; i < 5000; ++i) {
    data[i] = Tuple{r_keys[i], r_vals[i]};
    data[5000 + i] = Tuple{s_keys[i], s_vals[i]};
  }
  join::ScratchJoiner joiner(join::HashScheme::kBucketChaining,
                             hw_.gpu.scratchpad_bytes);
  uint64_t direct_matches = 0, direct_checksum = 0;
  uint64_t emit_matches = 0, emit_checksum = 0;
  dev.Launch({.name = "join"}, [&](exec::KernelContext& ctx) {
    uint64_t cursor = 0;
    EXPECT_TRUE(joiner
                    .JoinSlices(ctx, *rows, {{0, 5000}}, *rows,
                                {{5000, 5000}}, /*radix_shift=*/0,
                                /*result=*/nullptr, &cursor, &direct_matches,
                                &direct_checksum)
                    .ok());
    joiner.JoinSlicesEmit(ctx, *rows, {{0, 5000}}, *rows, {{5000, 5000}},
                          /*radix_shift=*/0,
                          [&](int64_t build_val, int64_t probe_val) {
                            ++emit_matches;
                            emit_checksum +=
                                static_cast<uint64_t>(build_val) +
                                static_cast<uint64_t>(probe_val);
                          });
  });
  EXPECT_EQ(direct_matches, 5000u);
  EXPECT_EQ(emit_matches, direct_matches);
  EXPECT_EQ(emit_checksum, direct_checksum);
}

// --- No-partitioning join ---

/// (scheme, result mode, table spilled past GPU memory).
using NpjCase = std::tuple<join::HashScheme, join::ResultMode, bool>;

class NpjIdentityTest : public ::testing::TestWithParam<NpjCase> {
 protected:
  // |R| != |S|, so the result buffer is the only freed buffer of
  // |S| x 16 bytes. Both sides exceed one wave of probe and build blocks.
  static constexpr uint64_t kR = 270000;
  static constexpr uint64_t kS = 300000;

  struct NpjResult {
    uint64_t matches = 0;
    uint64_t checksum = 0;
    std::vector<hash::Entry> rows;
    sim::PerfCounters totals;
    std::vector<exec::KernelRecord> phases;
    double elapsed = 0.0;
  };

  NpjResult Run(uint32_t threads) {
    const auto [scheme, mode, spilled] = GetParam();
    // Spilled: 4 MiB of GPU memory and a 256-entry L2 TLB of 8 KiB ranges,
    // so every table spills and its spilled part spans far more ranges
    // than the TLB holds: hits and misses depend on replay order.
    const sim::HwSpec hw =
        sim::HwSpec::Ac922NvLink().Scaled(spilled ? 4096 : 64);
    ThreadsGuard guard(threads);
    exec::Device dev(hw, /*sanitize=*/true);
    ResultCapture capture(dev.sanitizer(), kS * sizeof(hash::Entry));
    dev.allocator().set_observer(&capture);
    data::WorkloadConfig cfg;
    cfg.r_tuples = kR;
    cfg.s_tuples = kS;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    CHECK_OK(wl.status());
    join::NoPartitioningJoin npj({.scheme = scheme, .result_mode = mode});
    auto run = npj.Run(dev, wl->r, wl->s);
    CHECK_OK(run.status());
    if (spilled) {
      EXPECT_GT(run->totals.link_read_txns, 0u) << "table did not spill";
    }
    NpjResult res;
    res.matches = run->matches;
    res.checksum = run->checksum;
    res.totals = run->totals;
    res.phases = run->phases;
    res.elapsed = run->elapsed;
    if (mode == join::ResultMode::kMaterialize) {
      res.rows = capture.captured();
      // PK/FK: row j pairs probe tuple j with the build tuple of its key.
      std::vector<data::Value> payload_of(kR + 1);
      for (uint64_t i = 0; i < kR; ++i) {
        payload_of[wl->r.keys()[i]] = wl->r.payload(0)[i];
      }
      EXPECT_EQ(res.rows.size(), kS);
      uint64_t wrong = 0;
      for (uint64_t j = 0; j < std::min<uint64_t>(kS, res.rows.size()); ++j) {
        wrong += res.rows[j].key != payload_of[wl->s.keys()[j]] ||
                 res.rows[j].value != wl->s.payload(0)[j];
      }
      EXPECT_EQ(wrong, 0u) << "rows out of probe order at threads " << threads;
    }
    EXPECT_EQ(res.matches, kS);
    std::vector<Violation> vs = dev.sanitizer()->TakeViolations();
    EXPECT_TRUE(vs.empty()) << vs.size() << " violation(s) at threads "
                            << threads << ", first: " << vs.front().message;
    dev.allocator().set_observer(dev.sanitizer());
    return res;
  }
};

TEST_P(NpjIdentityTest, IsThreadCountInvariant) {
  const NpjResult serial = Run(1);
  for (uint32_t threads : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const NpjResult par = Run(threads);
    EXPECT_EQ(par.matches, serial.matches);
    EXPECT_EQ(par.checksum, serial.checksum);
    ASSERT_EQ(par.rows.size(), serial.rows.size());
    for (size_t i = 0; i < serial.rows.size(); ++i) {
      ASSERT_EQ(par.rows[i].key, serial.rows[i].key) << "row " << i;
      ASSERT_EQ(par.rows[i].value, serial.rows[i].value) << "row " << i;
    }
    ExpectCountersEq(par.totals, serial.totals);
    ASSERT_EQ(par.phases.size(), serial.phases.size());
    for (size_t p = 0; p < serial.phases.size(); ++p) {
      const exec::KernelRecord& a = par.phases[p];
      const exec::KernelRecord& b = serial.phases[p];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.sms, b.sms);
      ExpectCountersEq(a.counters, b.counters);
      EXPECT_EQ(a.time.compute, b.time.compute) << a.name;
      EXPECT_EQ(a.time.gpu_mem, b.time.gpu_mem) << a.name;
      EXPECT_EQ(a.time.cpu_mem, b.time.cpu_mem) << a.name;
      EXPECT_EQ(a.time.link, b.time.link) << a.name;
      EXPECT_EQ(a.time.tlb, b.time.tlb) << a.name;
      EXPECT_EQ(a.time.latency, b.time.latency) << a.name;
    }
    EXPECT_EQ(par.elapsed, serial.elapsed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesModesPlacements, NpjIdentityTest,
    ::testing::Combine(::testing::Values(join::HashScheme::kPerfect,
                                         join::HashScheme::kLinearProbing,
                                         join::HashScheme::kBucketChaining),
                       ::testing::Values(join::ResultMode::kMaterialize,
                                         join::ResultMode::kAggregate),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = join::HashSchemeName(std::get<0>(info.param));
      name += std::get<1>(info.param) == join::ResultMode::kMaterialize
                  ? "Materialize"
                  : "Aggregate";
      name += std::get<2>(info.param) ? "Spilled" : "InCore";
      return name;
    });

// --- Sanitizer provenance under parallel execution ---

class ParallelSanitizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hw_ = sim::HwSpec::Ac922NvLink().Scaled(64);
    dev_ = std::make_unique<exec::Device>(hw_, /*sanitize=*/true);
    ASSERT_NE(dev_->sanitizer(), nullptr);
  }

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

TEST_F(ParallelSanitizerTest, OobFlushKeepsProvenanceAtEightThreads) {
  ThreadsGuard guard(8);
  auto buf = dev_->allocator().AllocateCpu(1000);
  ASSERT_TRUE(buf.ok());
  const uint64_t words[2] = {7, 11};
  dev_->Launch({.name = "part1"}, [&](exec::KernelContext& ctx) {
    ctx.ForEachBlock(16, [&](exec::KernelContext& sub, uint32_t b) {
      sub.SetSanitizerBlock(b);
      if (b != 12) return;
      sub.SetSanitizerFlushSite(/*warp=*/3, /*partition=*/907);
      // An in-bounds bulk store mid-run, accounted by the second flush,
      // must not mask or duplicate the overrun report.
      sub.StoreRun(*buf, 0, words, 2);
      sub.WriteNoTlb(*buf, buf->size() - 8, 48, /*random=*/true);
      sub.WriteNoTlb(*buf, 0, sizeof(words), /*random=*/true);
      sub.AddTuples(1);
      sub.Charge(1);
    });
  });
  EXPECT_EQ(buf->as<uint64_t>()[0], 7u);
  EXPECT_EQ(buf->as<uint64_t>()[1], 11u);
  Violation v = TakeSingle(ViolationCode::kAccountedOutOfBounds);
  EXPECT_EQ(v.block, 12u);
  EXPECT_EQ(v.warp, 3u);
  EXPECT_NE(v.message.find("kernel part1"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("block 12"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("warp 3"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("partition 907"), std::string::npos) << v.message;
  EXPECT_NE(v.message.find("flush wrote 40 B past extent"),
            std::string::npos)
      << v.message;
}

// Every block bulk-stores two words into its own slot and accounts them;
// block 12 also overruns the extent. The stored words and the report must
// not depend on how the blocks are spread over worker threads.
TEST_F(ParallelSanitizerTest, OobFlushReportIsThreadCountInvariant) {
  constexpr uint32_t kBlocks = 16;
  auto run = [&](uint32_t threads) {
    ThreadsGuard guard(threads);
    exec::Device dev(hw_, /*sanitize=*/true);
    auto buf = dev.allocator().AllocateCpu(kBlocks * 2 * sizeof(uint64_t));
    CHECK_OK(buf.status());
    dev.Launch({.name = "part1"}, [&](exec::KernelContext& ctx) {
      ctx.ForEachBlock(kBlocks, [&](exec::KernelContext& sub, uint32_t b) {
        sub.SetSanitizerBlock(b);
        sub.SetSanitizerFlushSite(/*warp=*/b % 4, /*partition=*/100 + b);
        const uint64_t words[2] = {b, 7 * uint64_t{b} + 1};
        sub.StoreRun(*buf, 2 * b, words, 2);
        if (b == 12) {
          sub.WriteNoTlb(*buf, buf->size() - 8, 48, /*random=*/true);
        }
        sub.WriteNoTlb(*buf, 2 * b * sizeof(uint64_t), sizeof(words),
                       /*random=*/true);
        sub.AddTuples(1);
        sub.Charge(1);
      });
    });
    const uint64_t* stored = buf->as<uint64_t>();
    return std::make_pair(
        std::vector<uint64_t>(stored, stored + 2 * kBlocks),
        dev.sanitizer()->TakeViolations());
  };
  const auto [words1, vs1] = run(1);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(words1[2 * b], b);
    EXPECT_EQ(words1[2 * b + 1], 7 * uint64_t{b} + 1);
  }
  ASSERT_EQ(vs1.size(), 1u);
  EXPECT_EQ(vs1[0].code, ViolationCode::kAccountedOutOfBounds);
  EXPECT_EQ(vs1[0].block, 12u);
  EXPECT_NE(vs1[0].message.find("partition 112"), std::string::npos)
      << vs1[0].message;
  EXPECT_NE(vs1[0].message.find("flush wrote 40 B past extent"),
            std::string::npos)
      << vs1[0].message;
  for (uint32_t threads : {2u, 8u}) {
    const auto [words, vs] = run(threads);
    EXPECT_EQ(words, words1) << "threads " << threads;
    ASSERT_EQ(vs.size(), 1u) << "threads " << threads;
    EXPECT_EQ(vs[0].code, vs1[0].code);
    EXPECT_EQ(vs[0].block, vs1[0].block);
    EXPECT_EQ(vs[0].warp, vs1[0].warp);
    EXPECT_EQ(vs[0].partition, vs1[0].partition);
    EXPECT_EQ(vs[0].message, vs1[0].message);
  }
}

TEST_F(ParallelSanitizerTest, ViolationsMergeInBlockOrderAtEightThreads) {
  ThreadsGuard guard(8);
  dev_->Launch({.name = "stray"}, [&](exec::KernelContext& ctx) {
    ctx.ForEachBlock(16, [&](exec::KernelContext& sub, uint32_t b) {
      sub.SetSanitizerBlock(b);
      if (b != 3 && b != 12) return;
      // No allocation lives at this address.
      sub.sanitizer()->RecordAccounted(0x1000 + b, 64, /*is_write=*/true);
      sub.AddTuples(1);
      sub.Charge(1);
    });
  });
  std::vector<Violation> vs = dev_->sanitizer()->TakeViolations();
  ASSERT_EQ(vs.size(), 2u);
  // Block order, independent of which worker thread finished first.
  EXPECT_EQ(vs[0].block, 3u);
  EXPECT_EQ(vs[1].block, 12u);
  EXPECT_EQ(vs[0].code, ViolationCode::kAccountedOutOfBounds);
  EXPECT_EQ(vs[1].code, ViolationCode::kAccountedOutOfBounds);
}

TEST_F(ParallelSanitizerTest, UnaccountedStoreIsCaughtAtEightThreads) {
  ThreadsGuard guard(8);
  auto buf = dev_->allocator().AllocateCpu(4096);
  ASSERT_TRUE(buf.ok());
  dev_->Launch({.name = "leaky"}, [&](exec::KernelContext& ctx) {
    ctx.ForEachBlock(8, [&](exec::KernelContext& sub, uint32_t b) {
      sub.SetSanitizerBlock(b);
      if (b != 5) return;
      sub.Store<uint64_t>(*buf, 0, 42);  // no accounted traffic
      sub.AddTuples(1);
      sub.Charge(1);
    });
  });
  Violation v = TakeSingle(ViolationCode::kUnaccountedWrite);
  EXPECT_NE(v.message.find("have no accounted traffic"), std::string::npos)
      << v.message;
}

TEST_F(ParallelSanitizerTest, AccountedStoreStaysCleanAtEightThreads) {
  ThreadsGuard guard(8);
  auto buf = dev_->allocator().AllocateCpu(64 * 8);
  ASSERT_TRUE(buf.ok());
  dev_->Launch({.name = "clean"}, [&](exec::KernelContext& ctx) {
    ctx.ForEachBlock(8, [&](exec::KernelContext& sub, uint32_t b) {
      sub.SetSanitizerBlock(b);
      sub.Store<uint64_t>(*buf, b * 8, 42);
      sub.WriteSeq(*buf, static_cast<uint64_t>(b) * 64, 64);
      sub.AddTuples(1);
      sub.Charge(1);
    });
  });
  EXPECT_TRUE(dev_->sanitizer()->CheckOk().ok());
}

TEST_F(ParallelSanitizerTest, ScratchpadRaceIsCaughtInsideABlock) {
  ThreadsGuard guard(8);
  dev_->Launch({.name = "race"}, [&](exec::KernelContext& ctx) {
    ctx.ForEachBlock(8, [&](exec::KernelContext& sub, uint32_t b) {
      sub.SetSanitizerBlock(b);
      if (b != 7) return;
      sanitizer::ScratchpadShadow shadow(sub.sanitizer(), 1024,
                                         hw_.gpu.scratchpad_bytes);
      shadow.Store(128, 8, /*warp=*/1);
      shadow.Store(128, 8, /*warp=*/5);  // same word, no sync in between
      sub.AddTuples(1);
      sub.Charge(1);
    });
  });
  Violation v = TakeSingle(ViolationCode::kScratchpadRace);
  EXPECT_EQ(v.block, 7u);
  EXPECT_EQ(v.warp, 5u);
  EXPECT_NE(v.message.find("warps 1 and 5"), std::string::npos) << v.message;
}

TEST_F(ParallelSanitizerTest, LockProtocolIsCaughtInsideABlock) {
  ThreadsGuard guard(8);
  dev_->Launch({.name = "locks"}, [&](exec::KernelContext& ctx) {
    ctx.ForEachBlock(8, [&](exec::KernelContext& sub, uint32_t b) {
      sub.SetSanitizerBlock(b);
      if (b != 2) return;
      sanitizer::ScratchpadShadow shadow(sub.sanitizer(), 1024,
                                         hw_.gpu.scratchpad_bytes);
      shadow.AcquireLock(/*lock=*/7, /*warp=*/2);
      shadow.NoteFlush(/*lock=*/7, /*warp=*/4);  // warp 4 is not the holder
      shadow.ReleaseLock(/*lock=*/7, /*warp=*/2);
      sub.AddTuples(1);
      sub.Charge(1);
    });
  });
  Violation v = TakeSingle(ViolationCode::kLockProtocol);
  EXPECT_EQ(v.block, 2u);
  EXPECT_NE(v.message.find("flushed by a warp that does not hold"),
            std::string::npos)
      << v.message;
}

// --- Write coverage checked per block, against a byte-bitmap oracle ---

constexpr uint32_t kCoverageBlocks = 16;
/// Who records an interval: the launch before its blocks, a block
/// 0..kCoverageBlocks-1, or the launch after its blocks.
constexpr int kLaunchBefore = -1;
constexpr int kLaunchAfter = static_cast<int>(kCoverageBlocks);

struct CoverageOp {
  int who = kLaunchBefore;
  bool store = false;  // a checked store; otherwise an accounted write
  int alloc = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Sizes of the allocations a coverage script writes to.
const std::vector<uint64_t> kCoverageAllocs = {4096, 3000, 2048};

/// A seeded script of checked stores and accounted writes. Every store
/// draws who accounts it: the storing context itself right after the
/// store, another block, only the launch after its blocks (the staging
/// pattern: blocks copy, the launch accounts the whole pair once), part of
/// it, or nobody. Allocation 0 never draws the last two, so it is clean
/// only if accounting by other blocks and by the launch counts. Blocks
/// with b % 4 == 0 account every store themselves, the common case of
/// identical store and account logs. Accounted writes that cover no store
/// (an NPJ table's) ride along.
std::vector<CoverageOp> MakeCoverageScript(uint64_t seed) {
  util::Rng rng(seed);
  std::vector<CoverageOp> ops;
  auto other_block = [&rng](int not_this) {
    int b = 0;
    do {
      b = static_cast<int>(rng.NextBounded(kCoverageBlocks));
    } while (b % 4 == 0 || b == not_this);
    return b;
  };
  for (int alloc = 0; alloc < static_cast<int>(kCoverageAllocs.size());
       ++alloc) {
    const uint64_t size = kCoverageAllocs[alloc];
    const uint64_t launch_share = alloc == 2 ? 2 : 10;  // 1 in n stores
    for (int i = 0; i < 60; ++i) {
      const uint64_t begin = rng.NextBounded(size - 64);
      const uint64_t end = begin + 1 + rng.NextBounded(64);
      int who = static_cast<int>(rng.NextBounded(kCoverageBlocks));
      if (rng.NextBounded(launch_share) == 0) {
        who = rng.NextBounded(2) == 0 ? kLaunchBefore : kLaunchAfter;
      }
      ops.push_back({who, true, alloc, begin, end});
      uint64_t fate = rng.NextBounded(alloc == 0 ? 3 : 5);
      if (who >= 0 && who % 4 == 0) fate = 0;
      switch (fate) {
        case 0:  // by the storing context
          ops.push_back({who, false, alloc, begin, end});
          break;
        case 1:  // by another block
          ops.push_back({other_block(who), false, alloc, begin, end});
          break;
        case 2:  // only by the launch, after every block
          ops.push_back({kLaunchAfter, false, alloc, begin, end});
          break;
        case 3: {  // in part, by any context but the fast-path blocks
          const uint64_t cut = begin + rng.NextBounded(end - begin);
          const int by = rng.NextBounded(3) == 0 ? kLaunchAfter
                                                 : other_block(-1);
          if (rng.NextBounded(2) == 0) {
            ops.push_back({by, false, alloc, begin, cut});
          } else {
            ops.push_back({by, false, alloc, cut + 1, end});
          }
          break;
        }
        default:  // by nobody
          break;
      }
    }
    for (int i = 0; i < 10; ++i) {
      const uint64_t begin = rng.NextBounded(size - 64);
      const int by = rng.NextBounded(4) == 0 ? kLaunchBefore : other_block(-1);
      ops.push_back({by, false, alloc, begin, begin + 1 + rng.NextBounded(64)});
    }
  }
  return ops;
}

/// One expected kUnaccountedWrite report.
struct CoverageReport {
  int alloc = 0;
  uint64_t uncovered = 0, stored = 0, accounted = 0;
};

/// The reports EndLaunch must make, from one flag per byte. They come in
/// the order the launch's std::unordered_map holds the stored-to
/// allocations' base addresses, fed as serial execution feeds it: the
/// launch's own stores before the blocks, each block's keys in its own
/// map's order, then the launch's stores after the blocks.
std::vector<CoverageReport> CoverageOracle(const std::vector<CoverageOp>& ops,
                                           const std::vector<uint64_t>& bases) {
  std::vector<std::vector<uint8_t>> stored, accounted;
  for (uint64_t size : kCoverageAllocs) {
    stored.emplace_back(size, 0);
    accounted.emplace_back(size, 0);
  }
  for (const CoverageOp& op : ops) {
    auto& bytes = op.store ? stored[op.alloc] : accounted[op.alloc];
    for (uint64_t i = op.begin; i < op.end; ++i) bytes[i] = 1;
  }
  using Keys = std::unordered_map<uint64_t, int>;  // base -> allocation
  auto stores_of = [&](int who, Keys& keys) {
    for (const CoverageOp& op : ops) {
      if (op.who == who && op.store) keys.emplace(bases[op.alloc], op.alloc);
    }
  };
  Keys launch;
  stores_of(kLaunchBefore, launch);
  for (int b = 0; b < static_cast<int>(kCoverageBlocks); ++b) {
    Keys block;
    stores_of(b, block);
    for (const auto& key : block) launch.insert(key);
  }
  stores_of(kLaunchAfter, launch);
  std::vector<CoverageReport> reports;
  for (const auto& [base, a] : launch) {
    CoverageReport r{a, 0, 0, 0};
    for (size_t i = 0; i < stored[a].size(); ++i) {
      r.uncovered += stored[a][i] && !accounted[a][i];
      r.stored += stored[a][i];
      r.accounted += accounted[a][i];
    }
    if (r.uncovered > 0) reports.push_back(r);
  }
  return reports;
}

// Blocks check their own stores against their own accounted writes and
// hand on only the residue; the launch checks its own stores and every
// residue against all accounted writes. The reports must be exactly the
// byte oracle's, in count, order and bytes, at any thread count.
TEST_F(ParallelSanitizerTest, CoverageReportsMatchByteOracleAtAnyThreads) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    const std::vector<CoverageOp> ops = MakeCoverageScript(seed);
    std::vector<CoverageReport> expected;
    for (uint32_t threads : {1u, 2u, 8u}) {
      ThreadsGuard guard(threads);
      // A fresh device per run: the launch's maps start out alike.
      exec::Device dev(hw_, /*sanitize=*/true);
      std::vector<mem::Buffer> bufs;
      std::vector<uint64_t> bases;
      for (uint64_t size : kCoverageAllocs) {
        auto buf = dev.allocator().AllocateCpu(size);
        ASSERT_TRUE(buf.ok());
        bases.push_back(buf->base_addr());
        bufs.push_back(std::move(buf).value());
      }
      if (expected.empty()) {
        expected = CoverageOracle(ops, bases);
        ASSERT_FALSE(expected.empty()) << "seed " << seed;
        for (const CoverageReport& r : expected) {
          ASSERT_NE(r.alloc, 0) << "seed " << seed << ": allocation 0 leaks";
        }
      }
      auto replay = [&](exec::KernelContext& ctx, int who) {
        for (const CoverageOp& op : ops) {
          if (op.who != who) continue;
          const uint64_t addr = bases[op.alloc] + op.begin;
          if (op.store) {
            ctx.sanitizer()->RecordFunctionalWrite(addr, op.end - op.begin);
          } else {
            ctx.sanitizer()->RecordAccounted(addr, op.end - op.begin,
                                             /*is_write=*/true);
          }
        }
      };
      dev.Launch({.name = "coverage"}, [&](exec::KernelContext& ctx) {
        replay(ctx, kLaunchBefore);
        ctx.ForEachBlock(kCoverageBlocks,
                         [&](exec::KernelContext& sub, uint32_t b) {
                           sub.SetSanitizerBlock(b);
                           replay(sub, static_cast<int>(b));
                         });
        replay(ctx, kLaunchAfter);
      });
      const std::vector<Violation> vs = dev.sanitizer()->TakeViolations();
      ASSERT_EQ(vs.size(), expected.size())
          << "seed " << seed << ", threads " << threads << ": "
          << (vs.empty() ? "" : vs.front().message);
      for (size_t i = 0; i < vs.size(); ++i) {
        const CoverageReport& r = expected[i];
        std::ostringstream want;
        want << "kernel coverage, block 0, warp 0: " << r.uncovered
             << " B of functional writes to allocation at 0x" << std::hex
             << bases[r.alloc] << std::dec << " (" << r.stored
             << " B stored, " << r.accounted
             << " B accounted) have no accounted traffic";
        EXPECT_EQ(vs[i].code, ViolationCode::kUnaccountedWrite);
        EXPECT_EQ(vs[i].message, want.str())
            << "seed " << seed << ", threads " << threads << ", report " << i;
      }
    }
  }
}

TEST_F(ParallelSanitizerTest, TupleCountLintSeesMergedBlockCounters) {
  ThreadsGuard guard(8);
  dev_->Launch({.name = "short"}, [&](exec::KernelContext& ctx) {
    ctx.ExpectTuples(100, sizeof(Tuple));
    ctx.ForEachBlock(10, [&](exec::KernelContext& sub, uint32_t b) {
      sub.SetSanitizerBlock(b);
      sub.AddTuples(5);  // 10 blocks x 5 = 50, half the expectation
      sub.Charge(1);
    });
  });
  std::vector<Violation> vs = dev_->sanitizer()->TakeViolations();
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs.front().code, ViolationCode::kCounterInvariant);
  EXPECT_NE(vs.front().message.find("processed 50 tuples, expected 100"),
            std::string::npos)
      << vs.front().message;
}

}  // namespace
}  // namespace triton
