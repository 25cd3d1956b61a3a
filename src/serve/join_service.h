// Concurrent join service over the simulated machine.
//
// JoinService is the front end the ROADMAP's north star asks for: many
// tenants submit join / aggregate / probe requests; the service admits them
// through a bounded queue, carves the machine between in-flight queries via
// the MemoryArbiter, batches small probe requests against a SharedBuild,
// and reduces per-tenant PerfCounters in deterministic tenant order.
//
// Determinism contract (extends PR 2's): the scheduler itself is
// single-threaded and draws its interleaving decisions from a seeded
// util::Rng, so the sequence of dispatches is a pure function of
// (scheduler seed, request trace, config). Intra-query parallelism runs
// through exec::BlockExecutor, whose block-ordered reduction is
// bit-identical at any thread count; each query executes on a fresh
// private Device (and each probe batch inside an allocator arena), so its
// simulated addresses — and the TLB/counter physics derived from them —
// depend only on its own allocation sequence. Together: a given
// (seed, trace, config) triple produces bit-identical results and
// counters at any --threads value.
//
// Time model: queries time-share one GPU, so the service's modeled busy
// time is the sum of the dispatched kernels' modeled seconds plus a fixed
// dispatch overhead per scheduler dispatch (kernel launch + driver
// bookkeeping — the cost probe batching amortizes). Batched launches
// attribute elapsed time and counters to member requests proportionally to
// their probe tuples.

#ifndef TRITON_SERVE_JOIN_SERVICE_H_
#define TRITON_SERVE_JOIN_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "exec/backend.h"
#include "serve/arbiter.h"
#include "serve/shared_build.h"
#include "sim/hw_spec.h"
#include "sim/perf_counters.h"
#include "util/random.h"
#include "util/status.h"

namespace triton::serve {

/// What a tenant asks the service to run.
enum class RequestKind {
  /// PK/FK equi-join of a generated R |><| S workload (aggregated result).
  kJoin,
  /// SUM/COUNT GROUP BY over a generated foreign-key relation.
  kAggregate,
  /// Small probe against the service's shared resident build side.
  kProbe,
};

const char* RequestKindName(RequestKind kind);

/// One tenant request.
struct Request {
  uint32_t tenant = 0;
  RequestKind kind = RequestKind::kJoin;
  /// Build-side tuples (kJoin) or group-key domain (kAggregate); unused
  /// for kProbe.
  uint64_t r_tuples = 0;
  /// Probe-side tuples (kJoin), input tuples (kAggregate), or probe keys
  /// (kProbe).
  uint64_t s_tuples = 0;
  /// Seed of the request's deterministic workload content.
  uint64_t seed = 1;
  /// Probe-side skew for kJoin (0 = uniform).
  double zipf_theta = 0.0;
  /// Backend a kJoin executes on: the GPU Triton join (default), the
  /// CPU-only radix join (reserves no GPU memory or scratchpad, so the
  /// arbiter can co-schedule it with GPU-resident queries), or the
  /// co-processing scheduler splitting the query across both processors.
  exec::Backend backend = exec::Backend::kGpu;
};

/// Service-wide configuration.
struct ServiceConfig {
  /// Admission bound: Submit fails with ResourceExhausted beyond this many
  /// pending requests.
  uint32_t queue_capacity = 64;
  /// Maximum queries holding arbiter reservations at once.
  uint32_t max_inflight = 4;
  /// Seed of the deterministic inter-query scheduler.
  uint64_t scheduler_seed = 1;
  /// Maximum probe requests coalesced into one shared-build launch.
  uint32_t probe_batch_limit = 8;
  /// Cardinality of the shared resident build side (0 = none; probe
  /// requests are then rejected at submit).
  uint64_t shared_build_tuples = 0;
  uint64_t shared_build_seed = 7;
};

/// Terminal state of one admitted request.
struct RequestOutcome {
  uint64_t id = 0;
  uint32_t tenant = 0;
  RequestKind kind = RequestKind::kJoin;
  /// OK on success; ResourceExhausted when the request could never fit the
  /// machine; the failing operator status otherwise.
  util::Status status;
  /// Join matches, aggregate groups, or probe matches.
  uint64_t matches = 0;
  uint64_t checksum = 0;
  /// Modeled seconds attributed to this request (incl. dispatch-overhead
  /// share).
  double elapsed = 0.0;
  /// Number of requests in the launch this one executed in (1 unless
  /// batched).
  uint32_t batch_size = 1;
  /// Counters attributed to this request (proportional share for batches).
  sim::PerfCounters counters;
};

/// Per-tenant reduction of all outcomes, produced in ascending tenant id.
struct TenantReport {
  uint32_t tenant = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Requests refused at admission (never admitted, no outcome).
  uint64_t rejected = 0;
  uint64_t matches = 0;
  uint64_t checksum = 0;
  double elapsed = 0.0;
  sim::PerfCounters counters;
};

/// The service: bounded admission, arbiter-carved execution, deterministic
/// scheduling. Single-threaded by design; parallelism lives inside the
/// kernels (exec::BlockExecutor).
class JoinService {
 public:
  JoinService(const sim::HwSpec& hw, const ServiceConfig& config);

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  /// Enqueues a request. Fails with ResourceExhausted when the admission
  /// queue is full (counted against the tenant), InvalidArgument for a
  /// malformed request (an empty side, or a tuple count whose byte sizes
  /// would overflow), FailedPrecondition for a probe without a shared
  /// build.
  util::Status Submit(const Request& request);

  /// Runs the deterministic scheduler until every admitted request has an
  /// outcome. Never aborts on per-request failures (they land in the
  /// request's outcome); returns non-OK only for service-level faults
  /// (e.g. the shared build failed to initialize).
  util::Status Drain();

  /// Outcomes in completion order (one per admitted request after Drain).
  const std::vector<RequestOutcome>& outcomes() const { return outcomes_; }

  /// Reduces outcomes per tenant, ordered by ascending tenant id. Counter
  /// merging follows outcome completion order within each tenant, which is
  /// itself deterministic.
  std::vector<TenantReport> BuildTenantReports() const;

  /// Modeled seconds the device spent busy (sum over dispatches).
  double busy_seconds() const { return busy_seconds_; }
  /// Scheduler dispatches executed (a probe batch counts once).
  uint64_t dispatches() const { return dispatches_; }

  MemoryArbiter& arbiter() { return arbiter_; }
  SharedBuild* shared_build() { return shared_build_.get(); }
  const util::Status& init_status() const { return init_status_; }

 private:
  struct PendingRequest {
    Request request;
    uint64_t id = 0;
  };
  struct InFlight {
    Request request;
    uint64_t id = 0;
    Reservation reservation;
  };

  /// The arbiter footprint a request is admitted under.
  ResourceRequest EstimateFootprint(const Request& request) const;

  /// Moves pending requests into the in-flight set while slots and budgets
  /// allow; permanently fails the head request when nothing in flight
  /// could ever release enough budget for it.
  void AdmitPending();

  /// Picks the next dispatch with the scheduler RNG and executes it.
  void DispatchOne();

  /// Runs one join/aggregate query on a fresh carved device.
  RequestOutcome ExecuteQuery(const InFlight& query);

  /// Runs the in-flight probe requests at `indices` as one batch.
  void ExecuteProbeBatch(const std::vector<size_t>& indices);

  sim::HwSpec hw_;
  ServiceConfig config_;
  MemoryArbiter arbiter_;
  std::unique_ptr<SharedBuild> shared_build_;
  util::Status init_status_;
  util::Rng rng_;
  /// Per-query equal shares of the post-shared-build budgets.
  uint64_t gpu_share_ = 0;
  uint64_t scratchpad_share_ = 0;

  std::deque<PendingRequest> pending_;
  std::vector<InFlight> inflight_;
  std::vector<RequestOutcome> outcomes_;
  /// tenant -> admission rejections.
  std::map<uint32_t, uint64_t> rejected_;
  uint64_t next_request_id_ = 1;
  double busy_seconds_ = 0.0;
  uint64_t dispatches_ = 0;
};

}  // namespace triton::serve

#endif  // TRITON_SERVE_JOIN_SERVICE_H_
