// Property-based tests: invariants that must hold across randomized
// parameter sweeps, checked with parameterized gtest suites.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/triton_aggregate.h"
#include "core/triton_join.h"
#include "data/generator.h"
#include "data/relation.h"
#include "exec/device.h"
#include "sched/coprocess_scheduler.h"
#include "serve/join_service.h"
#include "join/cpu_partitioned_join.h"
#include "join/cpu_radix_join.h"
#include "join/no_partitioning_join.h"
#include "mem/allocator.h"
#include "sim/cost_model.h"
#include "sim/packetizer.h"
#include "sim/tlb.h"
#include "util/random.h"
#include "util/units.h"

namespace triton {
namespace {

using util::kGiB;
using util::kMiB;

// --- Packetizer invariants under fuzzing ---

TEST(PacketizerProperty, PhysicalNeverBelowPayloadAndBulkMatchesAccess) {
  sim::Packetizer pkt(sim::HwSpec::Ac922NvLink().link);
  util::Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    uint64_t addr = rng.NextBounded(1 << 20);
    uint64_t size = 1 + rng.NextBounded(4096);
    for (bool write : {false, true}) {
      sim::TxnStats a = pkt.Access(addr, size, write);
      ASSERT_EQ(a.payload, size);
      ASSERT_GE(a.physical, a.payload);
      // At least one transaction per touched cacheline.
      uint64_t lines = (addr + size - 1) / 128 - addr / 128 + 1;
      ASSERT_EQ(a.txns, lines);

      // Bulk accounting agrees with Access on payload and touches the
      // same cachelines (bulk merges interior lines into full packets).
      sim::TxnStats b = pkt.Bulk(addr, size, write);
      ASSERT_EQ(b.payload, size);
      ASSERT_EQ(b.txns, lines);
      ASSERT_LE(b.physical, a.physical + 1);
    }
  }
}

TEST(PacketizerProperty, AlignedAccessesAreMostEfficient) {
  sim::Packetizer pkt(sim::HwSpec::Ac922NvLink().link);
  for (uint64_t size : {128u, 256u, 512u}) {
    sim::TxnStats aligned = pkt.Access(0, size, true);
    for (uint64_t misalign : {8u, 16u, 48u, 100u}) {
      sim::TxnStats off = pkt.Access(misalign, size, true);
      EXPECT_GE(off.physical, aligned.physical) << size << "+" << misalign;
    }
  }
}

// --- Translation cache: monotone miss rates ---

TEST(TlbProperty, MissRateGrowsWithWorkingSet) {
  double prev_rate = 0.0;
  for (uint64_t ranges : {16, 64, 256, 1024, 4096}) {
    sim::TranslationCache tc(64 * kMiB, 1 * kMiB, 8);  // 64 entries
    util::Lcg64 lcg(7);
    const int kAccesses = 50000;
    for (int i = 0; i < kAccesses; ++i) {
      tc.Access(lcg.NextBounded(ranges) * kMiB);
    }
    double rate = static_cast<double>(tc.misses()) / tc.lookups();
    EXPECT_GE(rate, prev_rate - 0.01) << ranges;
    prev_rate = rate;
  }
  // The largest working set must thrash.
  EXPECT_GT(prev_rate, 0.9);
}

// --- Cost model: monotonicity in every resource ---

TEST(CostModelProperty, MoreTrafficNeverGetsFaster) {
  sim::CostModel cm(sim::HwSpec::Ac922NvLink());
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    sim::PerfCounters a;
    a.link_read_physical = rng.NextBounded(1ull << 33);
    a.link_write_physical = rng.NextBounded(1ull << 33);
    a.gpu_mem_read = rng.NextBounded(1ull << 34);
    a.issue_slots = rng.NextBounded(1ull << 32);
    a.iommu_requests = rng.NextBounded(1 << 22);
    a.iommu_walks = a.iommu_requests / 2;

    sim::PerfCounters b = a;  // strictly more of everything
    b.link_read_physical += 1 << 20;
    b.gpu_mem_read += 1 << 20;
    b.issue_slots += 1 << 20;
    b.iommu_walks += 100;
    b.iommu_requests += 100;

    double ta = cm.Evaluate(a, 80).Elapsed();
    double tb = cm.Evaluate(b, 80).Elapsed();
    ASSERT_GE(tb, ta);
    // Elapsed equals the max of the components (roofline).
    sim::KernelTime t = cm.Evaluate(a, 80);
    ASSERT_DOUBLE_EQ(t.Elapsed(),
                     std::max({t.compute, t.gpu_mem, t.cpu_mem, t.link,
                               t.tlb, t.latency}));
  }
}

TEST(CostModelProperty, FewerSmsNeverFaster) {
  sim::CostModel cm(sim::HwSpec::Ac922NvLink());
  sim::PerfCounters c;
  c.issue_slots = 1ull << 32;
  c.link_read_physical = 1ull << 30;
  double prev = 0.0;
  for (uint32_t sms : {80u, 40u, 20u, 10u, 5u, 1u}) {
    double t = cm.Evaluate(c, sms).Elapsed();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

// --- Allocator: accounting is conserved under random alloc/free ---

TEST(AllocatorProperty, AccountingConservedUnderChurn) {
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(64);
  mem::Allocator alloc(hw);
  util::Rng rng(99);
  std::vector<mem::Buffer> live;
  for (int step = 0; step < 300; ++step) {
    if (live.size() < 10 && rng.NextBounded(2) == 0) {
      uint64_t bytes = 1 + rng.NextBounded(4 * kMiB);
      uint64_t gpu = rng.NextBounded(bytes + 1);
      auto buf = alloc.AllocateInterleaved(bytes, gpu);
      if (buf.ok()) {
        EXPECT_LE(buf->GpuBytes(),
                  gpu + hw.tlb.page_bytes * 64);  // ratio granularity
        live.push_back(std::move(buf).value());
      }
    } else if (!live.empty()) {
      size_t idx = rng.NextBounded(live.size());
      alloc.Free(live[idx]);
      live.erase(live.begin() + idx);
    }
    ASSERT_LE(alloc.gpu_used(), alloc.gpu_capacity());
  }
  for (auto& b : live) alloc.Free(b);
  EXPECT_EQ(alloc.gpu_used(), 0u);
  EXPECT_EQ(alloc.cpu_used(), 0u);
}

// --- Radix passes consume disjoint hash bits ---

TEST(RadixProperty, MultiPassRefinementIsConsistent) {
  partition::RadixConfig pass1{0, 6};
  partition::RadixConfig pass2 = pass1.Next(9);
  partition::RadixConfig flat{0, 15};
  for (int64_t k = 1; k < 50000; k += 7) {
    uint32_t p1 = pass1.PartitionOf(k);
    uint32_t p2 = pass2.PartitionOf(k);
    // The flat 15-bit partition equals the concatenation of both passes.
    EXPECT_EQ(flat.PartitionOf(k), (p1 << 9) | p2) << k;
  }
}

// --- All join algorithms agree across randomized workloads ---

using JoinAgreeParam = std::tuple<uint64_t /*seed*/, int /*size_class*/>;

class JoinAgreementProperty
    : public ::testing::TestWithParam<JoinAgreeParam> {};

TEST_P(JoinAgreementProperty, AllAlgorithmsProduceTheSameJoin) {
  auto [seed, size_class] = GetParam();
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(256);
  exec::Device dev(hw);
  util::Rng rng(seed);
  // R stays small; S fills R + S up to 9/8 of the largest size whose pairs
  // fit an eighth of GPU memory at 2^(bits1 - 1) pairs, so
  // TritonJoin::DeriveBits picks 2^bits1 pass-1 pairs (fanouts 2..32).
  const uint32_t bits1 = 1 + seed % 5;
  const uint64_t tuples =
      (hw.gpu_mem.capacity << bits1) / 16 / sizeof(partition::Tuple) * 9 / 8;
  uint64_t r = 2000 + rng.NextBounded(30000) * (size_class + 1);
  uint64_t s = tuples - r;

  data::WorkloadConfig cfg;
  cfg.r_tuples = r;
  cfg.s_tuples = s;
  cfg.seed = seed * 31 + 7;
  auto wl = data::GenerateWorkload(dev.allocator(), cfg);
  ASSERT_TRUE(wl.ok());

  join::NoPartitioningJoin npj(
      {.scheme = seed % 2 == 0 ? join::HashScheme::kPerfect
                               : join::HashScheme::kLinearProbing});
  auto ref = npj.Run(dev, wl->r, wl->s);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->matches, s);

  join::CpuRadixJoin cpu;
  auto a = cpu.Run(dev, wl->r, wl->s);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->checksum, ref->checksum);

  join::CpuPartitionedJoin cpj;
  auto b = cpj.Run(dev, wl->r, wl->s);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->checksum, ref->checksum);

  core::TritonJoin triton;
  auto c = triton.Run(dev, wl->r, wl->s);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(triton.stats().bits1, bits1);
  EXPECT_EQ(c->checksum, ref->checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinAgreementProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0, 3)),
    [](const ::testing::TestParamInfo<JoinAgreeParam>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_size" +
             std::to_string(std::get<1>(info.param));
    });

// --- Robustness: no performance cliffs for the Triton join ---

TEST(TritonRobustnessProperty, ThroughputDegradesGracefully) {
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(64);
  double prev_tp = 0.0;
  bool first = true;
  // Sweep across the GPU capacity boundary (state 0.5x..3x of GPU memory).
  for (double factor : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    uint64_t n = static_cast<uint64_t>(
        factor * static_cast<double>(hw.gpu_mem.capacity) / 32.0);
    exec::Device dev(hw);
    data::WorkloadConfig cfg;
    cfg.r_tuples = n;
    cfg.s_tuples = n;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    ASSERT_TRUE(wl.ok());
    core::TritonJoin join({.result_mode = join::ResultMode::kAggregate});
    auto run = join.Run(dev, wl->r, wl->s);
    ASSERT_TRUE(run.ok());
    double tp = run->Throughput(n, n);
    if (!first) {
      // Each doubling-ish step loses at most 30% — no cliff.
      EXPECT_GT(tp, prev_tp * 0.7) << "cliff at factor " << factor;
    }
    first = false;
    prev_tp = tp;
  }
}

// --- Service interleaving never changes any tenant's answer ---
//
// A seeded random schedule of join/aggregate requests across tenants runs
// through the JoinService (contended, interleaved, carved devices); every
// outcome must equal a serial oracle executed in isolation on the full
// machine: CpuRadixJoin for joins, TritonAggregate for aggregates.

class ServiceOracleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceOracleProperty, EveryTenantMatchesItsSerialOracle) {
  const uint64_t seed = GetParam();
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(64);
  util::Rng rng(seed * 977 + 11);

  std::vector<serve::Request> trace;
  for (uint32_t tenant = 0; tenant < 3; ++tenant) {
    for (int q = 0; q < 3; ++q) {
      serve::Request req;
      req.tenant = tenant;
      if (rng.NextBounded(2) == 0) {
        req.kind = serve::RequestKind::kJoin;
        req.r_tuples = 2000 + rng.NextBounded(15000);
        req.s_tuples = req.r_tuples + rng.NextBounded(req.r_tuples);
      } else {
        req.kind = serve::RequestKind::kAggregate;
        req.r_tuples = 500 + rng.NextBounded(3000);  // group-key domain
        req.s_tuples = 4000 + rng.NextBounded(25000);
      }
      req.seed = seed * 131 + tenant * 17 + static_cast<uint64_t>(q);
      trace.push_back(req);
    }
  }

  serve::ServiceConfig config;
  config.max_inflight = 3;
  config.scheduler_seed = seed;
  serve::JoinService service(hw, config);
  for (const serve::Request& req : trace) {
    ASSERT_TRUE(service.Submit(req).ok());
  }
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_EQ(service.outcomes().size(), trace.size());

  for (const serve::RequestOutcome& out : service.outcomes()) {
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    // Request ids are assigned in submission order, starting at 1.
    const serve::Request& req = trace[out.id - 1];
    exec::Device dev(hw);  // the full, uncontended machine
    if (req.kind == serve::RequestKind::kJoin) {
      data::WorkloadConfig cfg;
      cfg.r_tuples = req.r_tuples;
      cfg.s_tuples = req.s_tuples;
      cfg.seed = req.seed;
      auto wl = data::GenerateWorkload(dev.allocator(), cfg);
      ASSERT_TRUE(wl.ok());
      join::CpuRadixJoin oracle;
      auto run = oracle.Run(dev, wl->r, wl->s);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(out.matches, req.s_tuples) << "request " << out.id;
      EXPECT_EQ(out.checksum, run->checksum) << "request " << out.id;
    } else {
      auto rel = data::Relation::AllocateCpu(dev.allocator(), req.s_tuples);
      ASSERT_TRUE(rel.ok());
      data::FillForeignKeys(*rel, req.r_tuples, req.seed);
      data::FillPayloads(*rel, req.seed ^ 0x9e3779b97f4a7c15ULL);
      core::TritonAggregate oracle;
      auto run = oracle.Run(dev, *rel);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(out.matches, run->groups) << "request " << out.id;
      EXPECT_EQ(out.checksum, run->checksum) << "request " << out.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ServiceOracleProperty,
                         ::testing::Range<uint64_t>(1, 5));

// --- Workload generator properties across seeds ---

class GeneratorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorProperty, JoinCardinalityAlwaysEqualsProbeSide) {
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(64);
  mem::Allocator alloc(hw);
  util::Rng rng(GetParam());
  data::WorkloadConfig cfg;
  cfg.r_tuples = 500 + rng.NextBounded(5000);
  cfg.s_tuples = 500 + rng.NextBounded(20000);
  cfg.seed = GetParam();
  auto wl = data::GenerateWorkload(alloc, cfg);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(data::ReferenceJoinCardinality(wl->r, wl->s), cfg.s_tuples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Range<uint64_t>(1, 9));

// --- Co-processing split invariance: any split ratio, same join ---

class CoProcessSplitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoProcessSplitProperty, AnySplitRatioMatchesSingleBackendOracle) {
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(64);
  util::Rng rng(0xc0ffee ^ GetParam());
  data::WorkloadConfig cfg;
  cfg.r_tuples = 50000 + rng.NextBounded(200000);
  cfg.s_tuples = cfg.r_tuples + rng.NextBounded(200000);
  cfg.seed = GetParam();

  // Single-backend oracle: the full-GPU Triton join on its own device.
  uint64_t oracle_matches = 0, oracle_checksum = 0;
  {
    exec::Device dev(hw);
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    ASSERT_TRUE(wl.ok());
    core::TritonJoin gpu({.result_mode = join::ResultMode::kAggregate});
    auto run = gpu.Run(dev, wl->r, wl->s);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    oracle_matches = run->matches;
    oracle_checksum = run->checksum;
    EXPECT_EQ(oracle_checksum, join::ReferenceChecksum(wl->r, wl->s));
  }

  // The hybrid result is invariant in the split ratio: randomized ratios
  // plus both extremes all reproduce the oracle bit for bit.
  std::vector<double> ratios = {0.0, 1.0, rng.NextDouble(), rng.NextDouble()};
  for (double ratio : ratios) {
    exec::Device dev(hw);
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    ASSERT_TRUE(wl.ok());
    sched::CoProcessConfig sc;
    sc.result_mode = join::ResultMode::kAggregate;
    sc.split_ratio = ratio;
    sched::CoProcessScheduler hybrid(sc);
    auto run = hybrid.Run(dev, wl->r, wl->s);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->matches, oracle_matches) << "ratio " << ratio;
    EXPECT_EQ(run->checksum, oracle_checksum) << "ratio " << ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoProcessSplitProperty,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace triton
