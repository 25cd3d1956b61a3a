// Service-layer tests: deterministic multi-tenant execution, bounded
// admission, arbiter budgets, and probe batching.
//
// The headline check is the service determinism contract: a fixed
// (scheduler seed, request trace, config) triple must produce bit-identical
// per-tenant results and PerfCounters at --threads 1 and 8 — the serve
// layer extends PR 2's block-ordered reduction guarantee across whole
// concurrent queries.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "exec/block_executor.h"
#include "serve/arbiter.h"
#include "serve/join_service.h"
#include "serve/shared_build.h"
#include "sim/hw_spec.h"
#include "sim/perf_counters.h"
#include "util/status.h"
#include "util/units.h"

namespace triton {
namespace {

using serve::JoinService;
using serve::MemoryArbiter;
using serve::Request;
using serve::RequestKind;
using serve::RequestOutcome;
using serve::ResourceRequest;
using serve::ServiceConfig;
using serve::TenantReport;
using util::kMiB;

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

sim::HwSpec TestHw() { return sim::HwSpec::Ac922NvLink().Scaled(64); }

/// The 8-tenant mixed trace the determinism test replays: every tenant
/// submits one join, one aggregate and two shared-build probes.
std::vector<Request> MixedTrace(uint32_t tenants) {
  std::vector<Request> trace;
  for (uint32_t t = 0; t < tenants; ++t) {
    Request join;
    join.tenant = t;
    join.kind = RequestKind::kJoin;
    join.r_tuples = 20000 + 1000 * t;
    join.s_tuples = 30000 + 2000 * t;
    join.seed = 100 + t;
    trace.push_back(join);

    Request agg;
    agg.tenant = t;
    agg.kind = RequestKind::kAggregate;
    agg.r_tuples = 4000 + 100 * t;  // group-key domain
    agg.s_tuples = 25000 + 1500 * t;
    agg.seed = 200 + t;
    trace.push_back(agg);

    for (uint32_t p = 0; p < 2; ++p) {
      Request probe;
      probe.tenant = t;
      probe.kind = RequestKind::kProbe;
      probe.s_tuples = 3000 + 500 * t + 100 * p;
      probe.seed = 300 + 10 * t + p;
      trace.push_back(probe);
    }
  }
  return trace;
}

ServiceConfig MixedConfig() {
  ServiceConfig config;
  config.queue_capacity = 64;
  config.max_inflight = 4;
  config.scheduler_seed = 7;
  config.probe_batch_limit = 8;
  config.shared_build_tuples = 64 * 1024;
  return config;
}

struct ServiceRun {
  std::vector<RequestOutcome> outcomes;
  std::vector<TenantReport> reports;
  double busy_seconds = 0.0;
  uint64_t dispatches = 0;
};

ServiceRun RunService(const ServiceConfig& config,
                      const std::vector<Request>& trace, uint32_t threads) {
  ThreadsGuard guard(threads);
  JoinService service(TestHw(), config);
  EXPECT_TRUE(service.init_status().ok()) << service.init_status().ToString();
  for (const Request& r : trace) {
    util::Status st = service.Submit(r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  util::Status st = service.Drain();
  EXPECT_TRUE(st.ok()) << st.ToString();
  ServiceRun run;
  run.outcomes = service.outcomes();
  run.reports = service.BuildTenantReports();
  run.busy_seconds = service.busy_seconds();
  run.dispatches = service.dispatches();
  return run;
}

// --- The acceptance check: 8 concurrent tenants, threads 1 vs 8 ---

TEST(ServeDeterminismTest, EightTenantsBitIdenticalAcrossThreadCounts) {
  const std::vector<Request> trace = MixedTrace(8);
  const ServiceConfig config = MixedConfig();
  ServiceRun serial = RunService(config, trace, 1);
  ServiceRun parallel = RunService(config, trace, 8);

  ASSERT_EQ(serial.outcomes.size(), trace.size());
  ASSERT_EQ(parallel.outcomes.size(), trace.size());
  for (size_t i = 0; i < serial.outcomes.size(); ++i) {
    const RequestOutcome& a = serial.outcomes[i];
    const RequestOutcome& b = parallel.outcomes[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_TRUE(a.status.ok()) << a.status.ToString();
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.batch_size, b.batch_size);
    // Modeled time is derived from the counters, so bit-identical too.
    EXPECT_EQ(a.elapsed, b.elapsed);
    ExpectCountersEq(a.counters, b.counters);
  }

  ASSERT_EQ(serial.reports.size(), 8u);
  ASSERT_EQ(parallel.reports.size(), 8u);
  for (size_t t = 0; t < serial.reports.size(); ++t) {
    const TenantReport& a = serial.reports[t];
    const TenantReport& b = parallel.reports[t];
    EXPECT_EQ(a.tenant, static_cast<uint32_t>(t));
    EXPECT_EQ(b.tenant, static_cast<uint32_t>(t));
    EXPECT_EQ(a.completed, 4u);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.elapsed, b.elapsed);
    ExpectCountersEq(a.counters, b.counters);
  }
  EXPECT_EQ(serial.busy_seconds, parallel.busy_seconds);
  EXPECT_EQ(serial.dispatches, parallel.dispatches);
}

// --- Functional sanity of the mixed trace ---

TEST(ServeServiceTest, JoinOutcomesMatchProbeSideCardinality) {
  const std::vector<Request> trace = MixedTrace(2);
  ServiceRun run = RunService(MixedConfig(), trace, 2);
  for (const RequestOutcome& out : run.outcomes) {
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    if (out.kind == RequestKind::kJoin) {
      // PK/FK join: every probe tuple matches exactly once.
      const Request& req = trace[out.id - 1];
      EXPECT_EQ(out.matches, req.s_tuples);
    }
    EXPECT_GT(out.matches, 0u);
    EXPECT_GT(out.elapsed, 0.0);
  }
}

// --- Admission control ---

TEST(ServeAdmissionTest, QueueBoundRejectsWithResourceExhausted) {
  ServiceConfig config;
  config.queue_capacity = 3;
  JoinService service(TestHw(), config);

  Request req;
  req.kind = RequestKind::kJoin;
  req.r_tuples = 5000;
  req.s_tuples = 5000;
  for (int i = 0; i < 3; ++i) {
    req.tenant = static_cast<uint32_t>(i);
    req.seed = 10 + static_cast<uint64_t>(i);
    ASSERT_TRUE(service.Submit(req).ok());
  }
  req.tenant = 3;
  util::Status st = service.Submit(req);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kResourceExhausted);

  ASSERT_TRUE(service.Drain().ok());
  std::vector<TenantReport> reports = service.BuildTenantReports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[3].tenant, 3u);
  EXPECT_EQ(reports[3].rejected, 1u);
  EXPECT_EQ(reports[3].completed, 0u);
  for (int t = 0; t < 3; ++t) EXPECT_EQ(reports[t].completed, 1u);
}

TEST(ServeAdmissionTest, MalformedRequestsRejected) {
  JoinService service(TestHw(), ServiceConfig{});
  Request empty;
  empty.kind = RequestKind::kJoin;
  EXPECT_EQ(service.Submit(empty).code(),
            util::StatusCode::kInvalidArgument);
  Request probe;
  probe.kind = RequestKind::kProbe;
  probe.s_tuples = 100;
  // No shared build configured.
  EXPECT_EQ(service.Submit(probe).code(),
            util::StatusCode::kFailedPrecondition);
}

// 2^61 + 1 eight-byte keys wrap a 64-bit byte count to 8 bytes. Such a
// request is refused at Submit, so it is never admitted on a wrapped
// footprint, never allocated, and never batched with other tenants' probes.
TEST(ServeAdmissionTest, TupleCountsWhoseByteSizesOverflowRejected) {
  ServiceConfig config;
  config.shared_build_tuples = 1000;
  JoinService service(TestHw(), config);
  ASSERT_TRUE(service.init_status().ok());
  const uint64_t huge = (uint64_t{1} << 61) + 1;
  for (RequestKind kind :
       {RequestKind::kJoin, RequestKind::kAggregate, RequestKind::kProbe}) {
    Request oversized;
    oversized.kind = kind;
    oversized.r_tuples = 1000;
    oversized.s_tuples = huge;
    EXPECT_EQ(service.Submit(oversized).code(),
              util::StatusCode::kInvalidArgument)
        << serve::RequestKindName(kind);
  }
  Request probe;
  probe.kind = RequestKind::kProbe;
  probe.s_tuples = 500;
  ASSERT_TRUE(service.Submit(probe).ok());
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_EQ(service.outcomes().size(), 1u);
  EXPECT_TRUE(service.outcomes()[0].status.ok());
  EXPECT_EQ(service.outcomes()[0].matches, 500u);
}

// --- Memory arbiter ---

TEST(ServeArbiterTest, ExhaustionReturnsResourceExhaustedAndRetryWorks) {
  MemoryArbiter arbiter(TestHw());
  const uint64_t gpu = arbiter.gpu_capacity();

  ResourceRequest big;
  big.gpu_bytes = gpu - 1 * kMiB;
  auto first = arbiter.Reserve(big);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(arbiter.gpu_free(), 1 * kMiB);
  EXPECT_EQ(arbiter.active_reservations(), 1u);

  // The tenant's second query does not fit while the first holds budget.
  ResourceRequest small;
  small.gpu_bytes = 2 * kMiB;
  auto denied = arbiter.Reserve(small);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), util::StatusCode::kResourceExhausted);

  // Retry after release succeeds.
  first->Release();
  EXPECT_EQ(arbiter.gpu_free(), gpu);
  auto retry = arbiter.Reserve(small);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(arbiter.gpu_free(), gpu - 2 * kMiB);
}

TEST(ServeArbiterTest, ScratchpadIsABudgetToo) {
  sim::HwSpec hw = TestHw();
  MemoryArbiter arbiter(hw);
  ResourceRequest half;
  half.scratchpad_bytes = hw.gpu.scratchpad_bytes / 2;
  auto a = arbiter.Reserve(half);
  ASSERT_TRUE(a.ok());
  auto b = arbiter.Reserve(half);
  ASSERT_TRUE(b.ok());
  auto c = arbiter.Reserve(half);
  EXPECT_EQ(c.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(ServeArbiterTest, ReservationReleasesOnDestruction) {
  MemoryArbiter arbiter(TestHw());
  {
    ResourceRequest req;
    req.cpu_bytes = 8 * kMiB;
    auto res = arbiter.Reserve(req);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(arbiter.cpu_free(), arbiter.cpu_capacity() - 8 * kMiB);
  }
  EXPECT_EQ(arbiter.cpu_free(), arbiter.cpu_capacity());
  EXPECT_EQ(arbiter.active_reservations(), 0u);
}

TEST(ServeArbiterTest, CarvedSpecShrinksCapacitiesOnly) {
  sim::HwSpec hw = TestHw();
  MemoryArbiter arbiter(hw);
  ResourceRequest req;
  req.gpu_bytes = 16 * kMiB;
  req.cpu_bytes = 64 * kMiB;
  req.scratchpad_bytes = hw.gpu.scratchpad_bytes / 4;
  auto res = arbiter.Reserve(req);
  ASSERT_TRUE(res.ok());
  sim::HwSpec carved = arbiter.CarvedSpec(*res);
  EXPECT_EQ(carved.gpu_mem.capacity, 16 * kMiB);
  EXPECT_EQ(carved.cpu_mem.capacity, 64 * kMiB);
  EXPECT_EQ(carved.gpu.scratchpad_bytes, hw.gpu.scratchpad_bytes / 4);
  // Physics stays the real machine's.
  EXPECT_EQ(carved.gpu_mem.bandwidth, hw.gpu_mem.bandwidth);
  EXPECT_EQ(carved.link.raw_bandwidth_per_dir, hw.link.raw_bandwidth_per_dir);
  EXPECT_EQ(carved.tlb.page_bytes, hw.tlb.page_bytes);
  EXPECT_EQ(carved.gpu.num_sms, hw.gpu.num_sms);
}

TEST(ServeServiceTest, ImpossibleRequestFailsInsteadOfDeadlocking) {
  ServiceConfig config;
  JoinService service(TestHw(), config);
  Request monster;
  monster.kind = RequestKind::kJoin;
  // Larger than the whole scaled CPU memory: can never be admitted.
  monster.r_tuples = TestHw().cpu_mem.capacity / data::kTupleBytes;
  monster.s_tuples = monster.r_tuples;
  ASSERT_TRUE(service.Submit(monster).ok());
  ASSERT_TRUE(service.Drain().ok());
  ASSERT_EQ(service.outcomes().size(), 1u);
  EXPECT_EQ(service.outcomes()[0].status.code(),
            util::StatusCode::kResourceExhausted);
}

// --- Probe batching ---

TEST(ServeBatchingTest, BatchedProbesMatchUnbatchedExecution) {
  std::vector<Request> trace;
  for (uint32_t t = 0; t < 4; ++t) {
    for (uint32_t p = 0; p < 4; ++p) {
      Request probe;
      probe.tenant = t;
      probe.kind = RequestKind::kProbe;
      probe.s_tuples = 2000 + 300 * t + 50 * p;
      probe.seed = 40 + 10 * t + p;
      trace.push_back(probe);
    }
  }
  ServiceConfig batched = MixedConfig();
  batched.max_inflight = 8;
  batched.probe_batch_limit = 8;
  ServiceConfig unbatched = batched;
  unbatched.probe_batch_limit = 1;

  ServiceRun a = RunService(batched, trace, 2);
  ServiceRun b = RunService(unbatched, trace, 2);
  ASSERT_EQ(a.outcomes.size(), trace.size());
  ASSERT_EQ(b.outcomes.size(), trace.size());

  // Functional results are independent of batch composition...
  auto by_id = [](const std::vector<RequestOutcome>& outs, uint64_t id)
      -> const RequestOutcome& {
    for (const RequestOutcome& o : outs) {
      if (o.id == id) return o;
    }
    ADD_FAILURE() << "missing outcome " << id;
    return outs.front();
  };
  for (size_t i = 1; i <= trace.size(); ++i) {
    const RequestOutcome& batch_out = by_id(a.outcomes, i);
    const RequestOutcome& solo_out = by_id(b.outcomes, i);
    ASSERT_TRUE(batch_out.status.ok()) << batch_out.status.ToString();
    ASSERT_TRUE(solo_out.status.ok()) << solo_out.status.ToString();
    EXPECT_EQ(batch_out.matches, solo_out.matches);
    EXPECT_EQ(batch_out.checksum, solo_out.checksum);
    EXPECT_GT(batch_out.batch_size, 1u);
    EXPECT_EQ(solo_out.batch_size, 1u);
  }
  // ...but batching amortizes the per-dispatch overhead.
  EXPECT_LT(a.dispatches, b.dispatches);
  EXPECT_LT(a.busy_seconds, b.busy_seconds);
}

TEST(ServeBatchingTest, SharedBuildProbesSeeEveryKey) {
  sim::HwSpec hw = TestHw();
  MemoryArbiter arbiter(hw);
  serve::SharedBuild::Config config;
  config.tuples = 4096;
  auto sb = serve::SharedBuild::Create(hw, arbiter, config);
  ASSERT_TRUE(sb.ok()) << sb.status().ToString();

  // Probe keys are drawn from [1, build tuples], so every probe matches.
  std::vector<serve::ProbeSpec> specs = {{1000, 5}, {2000, 6}, {500, 7}};
  auto run = (*sb)->RunBatch(specs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->results.size(), 3u);
  EXPECT_EQ(run->results[0].matches, 1000u);
  EXPECT_EQ(run->results[1].matches, 2000u);
  EXPECT_EQ(run->results[2].matches, 500u);
  EXPECT_GT(run->elapsed, 0.0);

  // Rerunning the same batch is bit-identical (arena-reset addresses).
  auto rerun = (*sb)->RunBatch(specs);
  ASSERT_TRUE(rerun.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(run->results[i].checksum, rerun->results[i].checksum);
  }
  EXPECT_EQ(run->elapsed, rerun->elapsed);
  ExpectCountersEq(run->counters, rerun->counters);
}

// A batch whose key bytes overflow, alone or summed, is refused before
// anything is staged.
TEST(ServeBatchingTest, SharedBuildRefusesBatchWhoseBytesOverflow) {
  sim::HwSpec hw = TestHw();
  MemoryArbiter arbiter(hw);
  serve::SharedBuild::Config config;
  config.tuples = 1024;
  auto sb = serve::SharedBuild::Create(hw, arbiter, config);
  ASSERT_TRUE(sb.ok()) << sb.status().ToString();
  const uint64_t half = uint64_t{1} << 60;
  for (const std::vector<serve::ProbeSpec>& specs :
       {std::vector<serve::ProbeSpec>{{(uint64_t{1} << 61) + 1, 5}},
        std::vector<serve::ProbeSpec>{{half, 5}, {half, 6}}}) {
    EXPECT_EQ((*sb)->RunBatch(specs).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  auto run = (*sb)->RunBatch({{100, 5}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->results[0].matches, 100u);
}

// --- Mixed backends: CPU, GPU and hybrid joins co-resident ---

TEST(ServeBackendTest, MixedBackendTraceBitIdenticalAcrossThreadCounts) {
  std::vector<Request> trace;
  for (uint32_t t = 0; t < 3; ++t) {
    for (exec::Backend backend : {exec::Backend::kGpu, exec::Backend::kCpu,
                                  exec::Backend::kHybrid}) {
      Request join;
      join.tenant = t;
      join.kind = RequestKind::kJoin;
      join.backend = backend;
      join.r_tuples = 60000 + 5000 * t;
      join.s_tuples = 2 * join.r_tuples;
      join.seed = 100 + 10 * t + static_cast<uint64_t>(backend);
      trace.push_back(join);
    }
  }
  ServiceConfig config;
  config.scheduler_seed = 11;
  ServiceRun serial = RunService(config, trace, 1);
  ServiceRun parallel = RunService(config, trace, 8);

  ASSERT_EQ(serial.outcomes.size(), trace.size());
  ASSERT_EQ(parallel.outcomes.size(), trace.size());
  for (size_t i = 0; i < serial.outcomes.size(); ++i) {
    const RequestOutcome& a = serial.outcomes[i];
    const RequestOutcome& b = parallel.outcomes[i];
    EXPECT_TRUE(a.status.ok()) << a.status.ToString();
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.elapsed, b.elapsed);
    ExpectCountersEq(a.counters, b.counters);
  }
  EXPECT_EQ(serial.busy_seconds, parallel.busy_seconds);

  // All three backends agree on the join result for the same workload.
  std::vector<Request> same;
  for (exec::Backend backend : {exec::Backend::kGpu, exec::Backend::kCpu,
                                exec::Backend::kHybrid}) {
    Request join;
    join.kind = RequestKind::kJoin;
    join.backend = backend;
    join.r_tuples = 50000;
    join.s_tuples = 100000;
    join.seed = 99;
    same.push_back(join);
  }
  ServiceRun agree = RunService(ServiceConfig{}, same, 2);
  ASSERT_EQ(agree.outcomes.size(), 3u);
  for (const RequestOutcome& out : agree.outcomes) {
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.matches, agree.outcomes[0].matches);
    EXPECT_EQ(out.checksum, agree.outcomes[0].checksum);
  }
}

TEST(ServeBackendTest, CpuJoinsNeedNoGpuBudget) {
  // On a machine whose GPU budget fits only one carve, CPU-backend joins
  // still co-schedule: they reserve no GPU memory or scratchpad.
  ServiceConfig config;
  config.max_inflight = 4;
  std::vector<Request> trace;
  for (uint32_t i = 0; i < 4; ++i) {
    Request join;
    join.tenant = i;
    join.kind = RequestKind::kJoin;
    join.backend = exec::Backend::kCpu;
    join.r_tuples = 40000;
    join.s_tuples = 80000;
    join.seed = 40 + i;
    trace.push_back(join);
  }
  ServiceRun run = RunService(config, trace, 2);
  ASSERT_EQ(run.outcomes.size(), 4u);
  for (const RequestOutcome& out : run.outcomes) {
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.matches, 80000u);
    // The CPU path never touches the GPU: no link or GPU-memory traffic.
    EXPECT_EQ(out.counters.link_read_payload, 0u);
    EXPECT_EQ(out.counters.gpu_mem_read, 0u);
  }
}

}  // namespace
}  // namespace triton
