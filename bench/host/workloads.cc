#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "core/triton_join.h"
#include "data/generator.h"
#include "exec/block_executor.h"
#include "exec/device.h"
#include "join/no_partitioning_join.h"
#include "partition/hierarchical.h"
#include "partition/prefix_sum.h"
#include "sched/coprocess_scheduler.h"
#include "serve/join_service.h"
#include "sim/hw_spec.h"
#include "util/random.h"

namespace triton::hostbench {

namespace {

using MK = MetricKind;

/// Timed reps every workload runs at least, whatever --seconds says, so a
/// median always exists.
constexpr int64_t kMinTimedReps = 3;
/// Untimed, oracle-checked serve rounds before the closed loop is timed.
constexpr int64_t kServeWarmupRounds = 20;
constexpr uint32_t kServeTenants = 8;
constexpr int64_t kServeSetups = 5;
/// Isolated Submit+Drain calls per request kind in the traced run.
constexpr int kIsolatedRequests = 20;
/// Host-time twins (threads, sanitizer) run at the sanitized workload's
/// sizes, so they stay affordable next to the out-of-core workloads.
constexpr double kTwinTritonPaperMTuples = 256;
constexpr double kTwinNpjPaperMTuples = 128;

enum class Op { kTriton, kCoProc, kNpj, kNpjAggregate };

const char* OpSpan(Op op) {
  switch (op) {
    case Op::kTriton:
      return "core.triton_join";
    case Op::kCoProc:
      return "sched.coproc";
    case Op::kNpj:
    case Op::kNpjAggregate:
      return "join.npj";
  }
  return "?";
}

/// One device and one generated R/S pair per group; the group's operators
/// all run on it.
struct Group {
  double paper_mtuples = 0;
  std::vector<Op> ops;
};

struct JoinSpec {
  bool sanitize = false;
  std::vector<Group> groups;
};

enum class ServeKind { kProbe, kJoinGpu, kJoinHybrid, kJoinCpu, kAggregate };

constexpr ServeKind kServeKinds[] = {ServeKind::kProbe, ServeKind::kJoinGpu,
                                     ServeKind::kJoinHybrid,
                                     ServeKind::kJoinCpu,
                                     ServeKind::kAggregate};

const char* ServeKindName(ServeKind kind) {
  switch (kind) {
    case ServeKind::kProbe:
      return "probe";
    case ServeKind::kJoinGpu:
      return "join_gpu";
    case ServeKind::kJoinHybrid:
      return "join_hybrid";
    case ServeKind::kJoinCpu:
      return "join_cpu";
    case ServeKind::kAggregate:
      return "aggregate";
  }
  return "?";
}

/// The seeded request mix: 60% probes, 10% each of GPU, hybrid and CPU
/// joins, 10% aggregates. Every ten consecutive requests hold exactly that
/// mix in a seeded order, so every stretch of the closed loop carries the
/// same work and window rates compare.
class RequestMix {
 public:
  explicit RequestMix(uint64_t seed) : rng_(seed) {}

  ServeKind NextKind() {
    if (next_ == deck_.size()) {
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.NextBounded(i + 1)]);
      }
      next_ = 0;
    }
    return deck_[next_++];
  }

  /// Seed of the next request's data.
  uint64_t NextSeed() { return rng_.Next(); }

 private:
  util::Rng rng_;
  std::array<ServeKind, 10> deck_ = {
      ServeKind::kProbe,   ServeKind::kProbe,      ServeKind::kProbe,
      ServeKind::kProbe,   ServeKind::kProbe,      ServeKind::kProbe,
      ServeKind::kJoinGpu, ServeKind::kJoinHybrid, ServeKind::kJoinCpu,
      ServeKind::kAggregate};
  size_t next_ = deck_.size();
};

/// Peak resident set of this process so far. The workloads read it after
/// their warm-up, which fills every pool and cache the timed phase reuses,
/// so it measures a fixed amount of work rather than however much the
/// timed phase fits into --seconds.
double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Input tuples of one request: both sides of a join, the probe-side or
/// aggregated column otherwise.
double RequestTuples(const serve::Request& req) {
  const uint64_t build =
      req.kind == serve::RequestKind::kJoin ? req.r_tuples : 0;
  return static_cast<double>(build + req.s_tuples);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b << 32);
  return util::SplitMix64(state);
}

double Sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// O(n) reference checksum of a PK/FK join whose build keys are a
/// permutation of 1..|R|: direct addressing instead of a hash table.
/// Returns nullopt when R's keys are not such a permutation or an S key
/// has no partner.
std::optional<uint64_t> DirectAddressChecksum(const data::Relation& r,
                                              const data::Relation& s) {
  const uint64_t n = r.rows();
  std::vector<data::Value> payload_of(n + 1);
  std::vector<uint8_t> seen(n + 1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    const data::Key k = r.keys()[i];
    if (k < 1 || static_cast<uint64_t>(k) > n || seen[k]) return std::nullopt;
    seen[k] = 1;
    payload_of[k] = r.payload(0)[i];
  }
  uint64_t checksum = 0;
  for (uint64_t j = 0; j < s.rows(); ++j) {
    const data::Key k = s.keys()[j];
    if (k < 1 || static_cast<uint64_t>(k) > n) return std::nullopt;
    checksum += static_cast<uint64_t>(payload_of[k]) +
                static_cast<uint64_t>(s.payload(0)[j]);
  }
  return checksum;
}

/// Host time and modeled result of one operator call.
struct OpResult {
  double host_seconds = 0.0;
  double modeled_seconds = 0.0;
};

/// One service plus what the benchmark has submitted to it.
struct ServeSession {
  std::unique_ptr<serve::JoinService> service;
  /// Requests admitted so far; the service numbers them 1, 2, ...
  uint64_t admitted = 0;
  /// Outcomes already checked.
  size_t checked = 0;
};

class Runner {
 public:
  Runner(const Options& opts, Recorder& rec, Report& report)
      : opts_(opts),
        rec_(rec),
        report_(report),
        hw_(sim::HwSpec::Ac922NvLink().Scaled(
            static_cast<double>(opts.scale))),
        oracle_alloc_(hw_) {}

  void RunJoinWorkload(const JoinSpec& spec, double probe_paper_mtuples);
  void RunServeWorkload();

 private:
  /// Simulated tuples for a paper-scale size in million tuples.
  uint64_t Tuples(double paper_mtuples) const {
    return std::max<uint64_t>(
        static_cast<uint64_t>(paper_mtuples * 1024.0 * 1024.0 /
                              static_cast<double>(opts_.scale)),
        256);
  }

  std::unique_ptr<exec::Device> NewDevice(bool sanitize, int64_t id,
                                          const char* span,
                                          double* seconds = nullptr);
  std::optional<data::Workload> Generate(exec::Device& dev, uint64_t n,
                                         uint64_t seed, int64_t id,
                                         const char* span,
                                         double* seconds = nullptr);
  /// Runs one operator call and checks its output: the PK/FK match count,
  /// `checksum` when given, and the sanitizer's verdict.
  OpResult RunOp(Op op, exec::Device& dev, const data::Workload& wl,
                 const char* span, int64_t id,
                 std::optional<uint64_t> checksum);
  /// Runs `op` on a fresh device and fresh data of `n` tuples per side,
  /// outside the workload's own reps.
  OpResult ProbeOp(Op op, bool sanitize, uint64_t n, const char* span,
                   int64_t id);

  /// One rep of a join workload; returns its input tuples, call host
  /// seconds, set-up seconds and modeled seconds.
  struct RepResult {
    double tuples = 0, host = 0, setup = 0, modeled = 0;
  };
  RepResult JoinRep(const JoinSpec& spec, int64_t rep,
                    std::vector<double>* call_ms);
  /// The direct-address checksum of `wl`'s join; records a failure and
  /// returns nullopt when `wl` is not a PK/FK workload.
  std::optional<uint64_t> Oracle(const data::Workload& wl);

  serve::ServiceConfig ServeConfig() const;
  std::unique_ptr<ServeSession> NewSession(int64_t id);
  serve::Request MakeRequest(ServeKind kind, uint32_t tenant,
                             uint64_t seed) const;
  uint64_t ExpectedMatches(const serve::Request& req);
  /// Checks every outcome the service produced since the last call.
  void CheckOutcomes(ServeSession& session,
                     const std::map<uint64_t, serve::Request>& submitted);
  /// Submits one request per tenant, drains, and checks the outcomes.
  /// Appends each request's latency to `latency_ms` when given.
  struct RoundResult {
    double tuples = 0, seconds = 0;
  };
  RoundResult ServeRound(ServeSession& session, RequestMix& mix,
                         int64_t round, std::vector<double>* latency_ms);
  void IsolatedServeRequests(ServeSession& session);

  /// The traced run's layer probes: every layer the workload did not call
  /// itself, at the workload's size, plus the thread and sanitizer twins.
  void LayerProbes(double paper_mtuples, bool sanitize,
                   ServeSession* session);
  void PartitionProbe(uint64_t n, bool sanitize);
  void AddLayerMetrics();

  const Options& opts_;
  Recorder& rec_;
  Report& report_;
  const sim::HwSpec hw_;
  /// Backs the relations the serve oracles regenerate.
  mem::Allocator oracle_alloc_;

  // What the first call of each operator reported: counts and modeled
  // stats are a function of the seed, so they repeat exactly.
  std::optional<sim::PerfCounters> npj_counters_;
  std::optional<core::TritonJoinStats> triton_stats_;
  uint64_t triton_launches_ = 0;
  std::optional<sched::CoProcessStats> coproc_stats_;
  double coproc_elapsed_ = 0.0;
  double modeled_tuples_ = 0.0;
  double modeled_seconds_ = 0.0;
  double serve_requests_per_dispatch_ = 0.0;
  double serve_busy_seconds_ = 0.0;
  double trace_overhead_frac_ = 0.0;
  /// Checksum oracle per join-workload group, from the warm-up rep.
  std::vector<std::optional<uint64_t>> checksums_;
};

std::unique_ptr<exec::Device> Runner::NewDevice(bool sanitize, int64_t id,
                                                const char* span,
                                                double* seconds) {
  Recorder::Span s(rec_, span, id);
  auto dev = std::make_unique<exec::Device>(hw_, sanitize);
  const double t = s.Stop();
  if (seconds != nullptr) *seconds += t;
  return dev;
}

std::optional<data::Workload> Runner::Generate(exec::Device& dev, uint64_t n,
                                               uint64_t seed, int64_t id,
                                               const char* span,
                                               double* seconds) {
  data::WorkloadConfig cfg;
  cfg.r_tuples = n;
  cfg.s_tuples = n;
  cfg.seed = seed;
  Recorder::Span s(rec_, span, id);
  auto wl = data::GenerateWorkload(dev.allocator(), cfg);
  const double t = s.Stop();
  if (seconds != nullptr) *seconds += t;
  if (!wl.ok()) {
    report_.Record(false, "GenerateWorkload: " + wl.status().ToString());
    return std::nullopt;
  }
  return std::move(wl).value();
}

OpResult Runner::RunOp(Op op, exec::Device& dev, const data::Workload& wl,
                       const char* span, int64_t id,
                       std::optional<uint64_t> checksum) {
  core::TritonJoin triton({.scheme = join::HashScheme::kBucketChaining});
  sched::CoProcessConfig coproc_cfg;
  coproc_cfg.adaptive = true;
  sched::CoProcessScheduler coproc(coproc_cfg);
  const join::ResultMode npj_mode = op == Op::kNpjAggregate
                                        ? join::ResultMode::kAggregate
                                        : join::ResultMode::kMaterialize;
  join::NoPartitioningJoin npj(
      {.scheme = join::HashScheme::kLinearProbing, .result_mode = npj_mode});

  OpResult res;
  util::StatusOr<join::JoinRun> run = join::JoinRun{};
  {
    Recorder::Span s(rec_, span, id);
    switch (op) {
      case Op::kTriton:
        run = triton.Run(dev, wl.r, wl.s);
        break;
      case Op::kCoProc:
        run = coproc.Run(dev, wl.r, wl.s);
        break;
      case Op::kNpj:
      case Op::kNpjAggregate:
        run = npj.Run(dev, wl.r, wl.s);
        break;
    }
    res.host_seconds = s.Stop();
    if (run.ok()) {
      s.Arg("tuples", static_cast<double>(wl.r.rows() + wl.s.rows()));
      s.Arg("modeled_s", run->elapsed);
      s.Arg("launches", static_cast<double>(run->phases.size()));
      s.Arg("tlb_lookups", static_cast<double>(run->totals.gpu_tlb_lookups));
      s.Arg("iommu_requests",
            static_cast<double>(run->totals.iommu_requests));
    }
  }

  const std::string what = std::string(span) + " call " + std::to_string(id);
  std::string failure;
  if (!run.ok()) {
    failure = what + ": " + run.status().ToString();
  } else if (run->matches != wl.expected_join_cardinality) {
    failure = what + ": " + std::to_string(run->matches) + " matches, want " +
              std::to_string(wl.expected_join_cardinality);
  } else if (checksum && *checksum != run->checksum) {
    failure = what + ": checksum differs from the direct-address oracle";
  }
  if (dev.sanitizer() != nullptr) {
    // Consuming the violations also keeps the Device destructor quiet.
    std::vector<sanitizer::Violation> v = dev.sanitizer()->TakeViolations();
    if (!v.empty() && failure.empty()) {
      failure = what + ": " + std::to_string(v.size()) +
                " sanitizer violations, first: " + v.front().message;
    }
  }
  report_.Record(failure.empty(), failure);
  if (!run.ok()) return res;

  res.modeled_seconds = run->elapsed;
  if ((op == Op::kNpj || op == Op::kNpjAggregate) && !npj_counters_) {
    npj_counters_ = run->totals;
  }
  if (op == Op::kTriton && !triton_stats_) {
    triton_stats_ = triton.stats();
    triton_launches_ = run->phases.size();
  }
  if (op == Op::kCoProc && !coproc_stats_) {
    coproc_stats_ = coproc.stats();
    coproc_elapsed_ = run->elapsed;
  }
  return res;
}

OpResult Runner::ProbeOp(Op op, bool sanitize, uint64_t n, const char* span,
                         int64_t id) {
  auto dev = NewDevice(sanitize, id, "bench.probe_setup");
  auto wl = Generate(*dev, n, DeriveSeed(opts_.seed, 1000, n), id,
                     "bench.probe_setup");
  if (!wl) return {};
  return RunOp(op, *dev, *wl, span, id, Oracle(*wl));
}

std::optional<uint64_t> Runner::Oracle(const data::Workload& wl) {
  std::optional<uint64_t> checksum = DirectAddressChecksum(wl.r, wl.s);
  if (!checksum) {
    report_.Record(false, "input is not a PK/FK workload over keys 1..|R|");
  }
  return checksum;
}

Runner::RepResult Runner::JoinRep(const JoinSpec& spec, int64_t rep,
                                  std::vector<double>* call_ms) {
  RepResult out;
  Recorder::Span rep_span(rec_, "bench.rep", rep);
  checksums_.resize(spec.groups.size());
  for (size_t g = 0; g < spec.groups.size(); ++g) {
    const Group& group = spec.groups[g];
    const uint64_t n = Tuples(group.paper_mtuples);
    auto dev = NewDevice(spec.sanitize, rep, "exec.device_init", &out.setup);
    auto wl = Generate(*dev, n, DeriveSeed(opts_.seed, g, 0), rep,
                       "data.generate", &out.setup);
    if (!wl) continue;
    if (rep == 0) checksums_[g] = Oracle(*wl);
    for (Op op : group.ops) {
      const OpResult r = RunOp(op, *dev, *wl, OpSpan(op), rep, checksums_[g]);
      out.host += r.host_seconds;
      out.modeled += r.modeled_seconds;
      out.tuples += 2.0 * static_cast<double>(n);
      if (call_ms != nullptr) call_ms->push_back(r.host_seconds * 1e3);
    }
  }
  return out;
}

void Runner::RunJoinWorkload(const JoinSpec& spec,
                             double probe_paper_mtuples) {
  // Every rep joins the same inputs. Rep 0 is the untimed warm-up: it
  // fills the generator cache and the host block pool, computes the
  // checksum oracle every later call is held to, and its modeled time is
  // the run's exact modeled throughput.
  const RepResult warm = JoinRep(spec, 0, nullptr);
  modeled_tuples_ = warm.tuples;
  modeled_seconds_ = warm.modeled;
  report_.Add("peak_rss_mib", "MiB", PeakRssMib(), MK::kEndToEnd);

  std::vector<double> rates[2], setups, call_ms;
  const double start = rec_.Now();
  for (int64_t rep = 1;
       rep <= kMinTimedReps || rec_.Now() - start < opts_.seconds; ++rep) {
    // The traced run traces every other rep; the untraced ones measure
    // what tracing costs.
    const bool traced = opts_.traced && rep % 2 == 0;
    rec_.set_tracing(traced);
    const RepResult r = JoinRep(spec, rep, &call_ms);
    rec_.set_tracing(opts_.traced);
    std::printf("rep %lld: calls %.3f s, setup %.3f s, %.2f Mtuples/s\n",
                static_cast<long long>(rep), r.host, r.setup,
                Ratio(r.tuples, r.host) / 1e6);
    if (r.host > 0) rates[traced].push_back(Ratio(r.tuples, r.host) / 1e6);
    setups.push_back(r.setup);
  }
  std::vector<double> all_rates = rates[0];
  all_rates.insert(all_rates.end(), rates[1].begin(), rates[1].end());
  report_.Add("host_mtuples_per_s", "Mtuples/s", Median(all_rates),
              MK::kEndToEnd);
  report_.Add("req_ms_p50", "ms", Median(call_ms), MK::kEndToEnd);
  report_.Add("setup_s", "s", Median(setups), MK::kEndToEnd);
  if (opts_.traced) {
    trace_overhead_frac_ = Ratio(Median(rates[0]), Median(rates[1])) - 1.0;
    LayerProbes(probe_paper_mtuples, spec.sanitize, nullptr);
  }
  AddLayerMetrics();
}

serve::ServiceConfig Runner::ServeConfig() const {
  serve::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_inflight = 4;
  cfg.scheduler_seed = opts_.seed;
  cfg.shared_build_tuples = Tuples(32);
  cfg.shared_build_seed = DeriveSeed(opts_.seed, 2000, 0);
  return cfg;
}

std::unique_ptr<ServeSession> Runner::NewSession(int64_t id) {
  auto session = std::make_unique<ServeSession>();
  Recorder::Span s(rec_, "serve.init", id);
  session->service = std::make_unique<serve::JoinService>(hw_, ServeConfig());
  s.Stop();
  const util::Status& st = session->service->init_status();
  report_.Record(st.ok(), "JoinService init: " + st.ToString());
  if (!st.ok()) return nullptr;
  return session;
}

serve::Request Runner::MakeRequest(ServeKind kind, uint32_t tenant,
                                   uint64_t seed) const {
  serve::Request req;
  req.tenant = tenant;
  req.seed = seed;
  switch (kind) {
    case ServeKind::kProbe:
      req.kind = serve::RequestKind::kProbe;
      req.s_tuples = Tuples(1);
      break;
    case ServeKind::kJoinGpu:
    case ServeKind::kJoinHybrid:
    case ServeKind::kJoinCpu:
      req.kind = serve::RequestKind::kJoin;
      req.r_tuples = Tuples(8);
      req.s_tuples = Tuples(8);
      req.backend = kind == ServeKind::kJoinGpu      ? exec::Backend::kGpu
                    : kind == ServeKind::kJoinHybrid ? exec::Backend::kHybrid
                                                     : exec::Backend::kCpu;
      break;
    case ServeKind::kAggregate:
      req.kind = serve::RequestKind::kAggregate;
      req.r_tuples = Tuples(1);  // group-key domain
      req.s_tuples = Tuples(8);
      break;
  }
  return req;
}

uint64_t Runner::ExpectedMatches(const serve::Request& req) {
  if (req.kind != serve::RequestKind::kAggregate) {
    // Joins and probes are PK/FK: every probe-side tuple matches once.
    return req.s_tuples;
  }
  // Groups = distinct keys of the request's generated foreign-key column.
  auto rel = data::Relation::AllocateCpu(oracle_alloc_, req.s_tuples, 0);
  if (!rel.ok()) return 0;
  data::FillForeignKeys(*rel, req.r_tuples, req.seed);
  std::vector<uint8_t> seen(req.r_tuples + 1, 0);
  uint64_t groups = 0;
  for (uint64_t i = 0; i < rel->rows(); ++i) {
    const data::Key k = rel->keys()[i];
    if (k < 1 || static_cast<uint64_t>(k) > req.r_tuples) return 0;
    groups += seen[k] == 0;
    seen[k] = 1;
  }
  return groups;
}

void Runner::CheckOutcomes(
    ServeSession& session,
    const std::map<uint64_t, serve::Request>& submitted) {
  const auto& outcomes = session.service->outcomes();
  size_t seen = 0;
  for (; session.checked < outcomes.size(); ++session.checked) {
    const serve::RequestOutcome& out = outcomes[session.checked];
    const std::string what = std::string("serve request ") +
                             std::to_string(out.id) + " (" +
                             serve::RequestKindName(out.kind) + ")";
    auto it = submitted.find(out.id);
    if (it == submitted.end()) {
      report_.Record(false, what + ": outcome for an unknown request");
      continue;
    }
    ++seen;
    if (!out.status.ok()) {
      report_.Record(false, what + ": " + out.status.ToString());
      continue;
    }
    const uint64_t want = ExpectedMatches(it->second);
    report_.Record(out.matches == want,
                   what + ": " + std::to_string(out.matches) +
                       " matches, want " + std::to_string(want));
  }
  for (size_t missing = seen; missing < submitted.size(); ++missing) {
    report_.Record(false, "serve request without an outcome after Drain");
  }
}

Runner::RoundResult Runner::ServeRound(ServeSession& session,
                                      RequestMix& mix, int64_t round,
                                      std::vector<double>* latency_ms) {
  std::map<uint64_t, serve::Request> submitted;
  std::vector<double> submit_at;
  RoundResult out;
  Recorder::Span round_span(rec_, "bench.round", round);
  for (uint32_t t = 0; t < kServeTenants; ++t) {
    const ServeKind kind = mix.NextKind();
    const serve::Request req = MakeRequest(kind, t, mix.NextSeed());
    const double at = rec_.Now();
    util::Status st;
    {
      Recorder::Span s(rec_, "serve.submit",
                       static_cast<int64_t>(session.admitted + 1));
      st = session.service->Submit(req);
    }
    if (!st.ok()) {
      report_.Record(false, "serve Submit: " + st.ToString());
      continue;
    }
    submitted[++session.admitted] = req;
    submit_at.push_back(at);
    out.tuples += RequestTuples(req);
  }
  util::Status st;
  {
    Recorder::Span s(rec_, "serve.drain", round);
    st = session.service->Drain();
  }
  const double done = rec_.Now();
  out.seconds = round_span.Stop();
  if (latency_ms != nullptr) {
    for (double at : submit_at) latency_ms->push_back((done - at) * 1e3);
  }
  if (!st.ok()) report_.Record(false, "serve Drain: " + st.ToString());
  CheckOutcomes(session, submitted);
  return out;
}

void Runner::RunServeWorkload() {
  // Set-up is service construction (the shared build): a few milliseconds
  // whose speed follows the shared host's load of the moment, so besides
  // these constructions, the last of which runs the workload, the timed
  // loop builds and drops one service per one-second window and setup_s is
  // the median over all of them.
  std::unique_ptr<ServeSession> session;
  for (int64_t i = 0; i < kServeSetups; ++i) {
    session.reset();
    session = NewSession(i);
    if (!session) return;
  }
  RequestMix mix(DeriveSeed(opts_.seed, 3000, 0));

  // The warm-up rounds give the run's exact modeled facts: the service's
  // modeled busy time covers exactly these requests so far.
  for (int64_t round = 0; round < kServeWarmupRounds; ++round) {
    modeled_tuples_ += ServeRound(*session, mix, -1 - round, nullptr).tuples;
  }
  serve::JoinService& svc = *session->service;
  modeled_seconds_ = svc.busy_seconds();
  report_.Add("peak_rss_mib", "MiB", PeakRssMib(), MK::kEndToEnd);
  serve_busy_seconds_ = svc.busy_seconds();
  serve_requests_per_dispatch_ =
      static_cast<double>(session->admitted) /
      static_cast<double>(std::max<uint64_t>(svc.dispatches(), 1));

  // The timed closed loop is cut into one-second windows and throughput is
  // the median window rate, so a short stall of the shared host moves one
  // window rather than the whole run.
  std::vector<double> latency_ms, window_tuples, window_seconds;
  double tuples[2] = {0, 0}, seconds[2] = {0, 0};
  const double start = rec_.Now();
  for (int64_t round = 0;
       round < kMinTimedReps || rec_.Now() - start < opts_.seconds; ++round) {
    const bool traced = opts_.traced && round % 2 == 1;
    const size_t window = static_cast<size_t>(rec_.Now() - start);
    if (window >= window_tuples.size()) {
      NewSession(kServeSetups + static_cast<int64_t>(window));
    }
    rec_.set_tracing(traced);
    const RoundResult r = ServeRound(*session, mix, round, &latency_ms);
    rec_.set_tracing(opts_.traced);
    tuples[traced] += r.tuples;
    seconds[traced] += r.seconds;
    window_tuples.resize(std::max(window_tuples.size(), window + 1));
    window_seconds.resize(window_tuples.size());
    window_tuples[window] += r.tuples;
    window_seconds[window] += r.seconds;
  }
  std::vector<double> window_rates;
  for (size_t w = 0; w < window_tuples.size(); ++w) {
    if (window_seconds[w] > 0) {
      window_rates.push_back(window_tuples[w] / window_seconds[w] / 1e6);
    }
  }
  report_.Add("host_mtuples_per_s", "Mtuples/s", Median(window_rates),
              MK::kEndToEnd);
  report_.Add("req_ms_p50", "ms", Median(latency_ms), MK::kEndToEnd);
  // Only this workload has enough requests for a p99 with ten or more
  // samples beyond it; it is reported but not one of the gated metrics.
  report_.Add("req_ms_p99", "ms", Percentile(latency_ms, 99), MK::kEndToEnd);
  report_.Add("setup_s", "s", Median(rec_.Samples("serve.init")),
              MK::kEndToEnd);
  if (opts_.traced) {
    trace_overhead_frac_ = Ratio(Ratio(tuples[0], seconds[0]),
                                 Ratio(tuples[1], seconds[1])) -
                           1.0;
    LayerProbes(8, /*sanitize=*/false, session.get());
  }
  AddLayerMetrics();
}

void Runner::IsolatedServeRequests(ServeSession& session) {
  for (ServeKind kind : kServeKinds) {
    const std::string span = std::string("serve.") + ServeKindName(kind);
    for (int i = 0; i < kIsolatedRequests; ++i) {
      const serve::Request req =
          MakeRequest(kind, 0, DeriveSeed(opts_.seed, 4000 + i,
                                          static_cast<uint64_t>(kind)));
      std::map<uint64_t, serve::Request> submitted;
      util::Status st;
      {
        Recorder::Span s(rec_, span, i);
        {
          Recorder::Span sub(rec_, "serve.submit",
                             static_cast<int64_t>(session.admitted + 1));
          st = session.service->Submit(req);
        }
        if (st.ok()) {
          submitted[++session.admitted] = req;
          Recorder::Span d(rec_, "serve.drain", i);
          st = session.service->Drain();
        }
      }
      if (!st.ok()) report_.Record(false, span + ": " + st.ToString());
      CheckOutcomes(session, submitted);
    }
  }
}

void Runner::PartitionProbe(uint64_t n, bool sanitize) {
  auto dev = NewDevice(sanitize, 0, "bench.probe_setup");
  auto wl = Generate(*dev, n, DeriveSeed(opts_.seed, 5000, n), 0,
                     "bench.probe_setup");
  if (!wl) return;
  // Pass 1 exactly as TritonJoin configures it: DeriveBits' bits1, one
  // block per SM, CPU prefix sum.
  uint32_t bits1 = 0, bits2 = 0;
  core::TritonJoin::DeriveBits(hw_, n, n, &bits1, &bits2);
  const uint32_t sms = hw_.gpu.num_sms;
  const partition::RadixConfig radix{0, bits1};
  const partition::ColumnInput in = partition::ColumnInput::Of(wl->r);
  const partition::PartitionLayout layout =
      partition::CpuPrefixSum(*dev, in, radix, sms);
  auto out = dev->allocator().AllocateCpu(layout.padded_tuples() *
                                          sizeof(partition::Tuple));
  if (!out.ok()) {
    report_.Record(false, "partition output: " + out.status().ToString());
    return;
  }
  partition::HierarchicalPartitioner hierarchical;
  for (int64_t rep = 0; rep < 3; ++rep) {
    partition::PartitionRun run;
    {
      Recorder::Span s(rec_, "partition.pass1", rep);
      run = hierarchical.PartitionColumns(*dev, in, layout, *out,
                                          {.sms = sms, .name = "partition1_r"});
      s.Stop();
      s.Arg("flushes", static_cast<double>(run.flushes));
    }
    // Oracle: every tuple landed, in a slice of its own partition.
    uint64_t placed = 0;
    bool in_place = true;
    const partition::Tuple* rows = out->as<partition::Tuple>();
    for (uint32_t p = 0; p < layout.fanout(); ++p) {
      layout.ForEachSlice(p, [&](uint64_t begin, uint64_t count) {
        for (uint64_t i = begin; i < begin + count; ++i) {
          in_place = in_place && radix.PartitionOf(rows[i].key) == p;
        }
        placed += count;
      });
    }
    std::string failure;
    if (run.record.counters.tuples != n || placed != n || !in_place) {
      failure = "partition.pass1 rep " + std::to_string(rep) +
                ": output is not a radix partitioning of the input";
    }
    if (dev->sanitizer() != nullptr &&
        !dev->sanitizer()->TakeViolations().empty() && failure.empty()) {
      failure = "partition.pass1: sanitizer violations";
    }
    report_.Record(failure.empty(), failure);
  }
}

void Runner::LayerProbes(double paper_mtuples, bool sanitize,
                         ServeSession* session) {
  const uint64_t n = Tuples(paper_mtuples);
  Recorder::Span probes(rec_, "bench.probes", 0);
  if (!rec_.Has("exec.device_init") || !rec_.Has("data.generate")) {
    for (int64_t i = 0; i < 3; ++i) {
      auto dev = NewDevice(sanitize, i, "exec.device_init");
      Generate(*dev, n, DeriveSeed(opts_.seed, 6000, i), i, "data.generate");
    }
  }
  PartitionProbe(n, sanitize);
  if (!rec_.Has("core.triton_join")) {
    ProbeOp(Op::kTriton, sanitize, n, "core.triton_join", 0);
  }
  if (!rec_.Has("sched.coproc")) {
    ProbeOp(Op::kCoProc, sanitize, n, "sched.coproc", 0);
  }
  if (!rec_.Has("join.npj")) ProbeOp(Op::kNpj, sanitize, n, "join.npj", 0);

  // Thread twin: the same calls at --threads and at one thread.
  const uint64_t twin_n = Tuples(kTwinTritonPaperMTuples);
  exec::BlockExecutor& pool = exec::BlockExecutor::Global();
  for (Op op : {Op::kTriton, Op::kCoProc}) {
    ProbeOp(op, sanitize, twin_n, "exec.twin_threads_n", 0);
    pool.SetThreads(1);
    ProbeOp(op, sanitize, twin_n, "exec.twin_threads_1", 0);
    pool.SetThreads(opts_.threads);
  }
  // Sanitizer twin: the same calls on sanitized and plain devices.
  for (Op op : {Op::kNpjAggregate, Op::kTriton}) {
    const uint64_t m = Tuples(op == Op::kTriton ? kTwinTritonPaperMTuples
                                                : kTwinNpjPaperMTuples);
    ProbeOp(op, true, m, "sanitizer.twin_on", 0);
    ProbeOp(op, false, m, "sanitizer.twin_off", 0);
  }

  std::unique_ptr<ServeSession> own;
  if (session == nullptr) {
    own = NewSession(0);
    session = own.get();
  }
  if (session != nullptr) {
    IsolatedServeRequests(*session);
    if (own) {
      serve_busy_seconds_ = own->service->busy_seconds();
      serve_requests_per_dispatch_ =
          static_cast<double>(own->admitted) /
          static_cast<double>(std::max<uint64_t>(own->service->dispatches(),
                                                 1));
    }
  }
}

void Runner::AddLayerMetrics() {
  // Deterministic facts are reported whenever the run produced them; host
  // times only in the traced run, whose probes cover every layer.
  if (modeled_seconds_ > 0) {
    report_.Add("modeled_gtuples_per_s", "Gtuples/s",
                modeled_tuples_ / modeled_seconds_ / 1e9, MK::kLayerExact);
  }
  if (triton_stats_) {
    report_.Add("exec.launches", "count",
                static_cast<double>(triton_launches_), MK::kLayerExact);
    report_.Add("core.cached_fraction", "ratio",
                triton_stats_->cached_fraction, MK::kLayerExact);
    report_.Add("core.spilled_bytes", "bytes",
                static_cast<double>(triton_stats_->spilled_bytes),
                MK::kLayerExact);
  }
  if (coproc_stats_) {
    const sched::CoProcessStats& c = *coproc_stats_;
    // Both sides splitting ideally: the harmonic combination of the two
    // full-join predictions.
    const double predicted =
        1.0 / (1.0 / c.predicted_cpu_seconds + 1.0 / c.predicted_gpu_seconds);
    report_.Add("sched.cpu_fraction", "ratio", c.final_cpu_fraction,
                MK::kLayerExact);
    report_.Add("sched.predict_err", "ratio",
                Ratio(std::abs(predicted - coproc_elapsed_), coproc_elapsed_),
                MK::kLayerExact);
  }
  if (npj_counters_) {
    const sim::PerfCounters& c = *npj_counters_;
    report_.Add("sim.tlb_lookups", "count",
                static_cast<double>(c.gpu_tlb_lookups), MK::kLayerExact);
    report_.Add("sim.tlb_miss_ratio", "ratio",
                Ratio(static_cast<double>(c.gpu_tlb_misses),
                      static_cast<double>(c.gpu_tlb_lookups)),
                MK::kLayerExact);
    report_.Add("sim.iommu_requests", "count",
                static_cast<double>(c.iommu_requests), MK::kLayerExact);
    report_.Add("sim.iommu_walks", "count", static_cast<double>(c.iommu_walks),
                MK::kLayerExact);
    report_.Add("sim.link_txns", "count",
                static_cast<double>(c.link_read_txns + c.link_write_txns),
                MK::kLayerExact);
    report_.Add("sim.link_physical_bytes", "bytes",
                static_cast<double>(c.LinkPhysicalTotal()), MK::kLayerExact);
  }
  if (!opts_.traced) return;

  const auto median_of = [&](const char* span) {
    return Median(rec_.Samples(span));
  };
  report_.Add("exec.device_init_s", "s", median_of("exec.device_init"),
              MK::kLayerHost);
  report_.Add("data.generate_s", "s", median_of("data.generate"),
              MK::kLayerHost);
  report_.Add("serve.init_s", "s", median_of("serve.init"), MK::kLayerHost);
  report_.Add("partition.pass1_s", "s", median_of("partition.pass1"),
              MK::kLayerHost);
  report_.Add("core.triton_join_s", "s", median_of("core.triton_join"),
              MK::kLayerHost);
  report_.Add("sched.coproc_s", "s", median_of("sched.coproc"),
              MK::kLayerHost);
  report_.Add("join.npj_s", "s", median_of("join.npj"), MK::kLayerHost);
  report_.Add("exec.thread_speedup", "x",
              Ratio(Sum(rec_.Samples("exec.twin_threads_1")),
                    Sum(rec_.Samples("exec.twin_threads_n"))),
              MK::kLayerHost);
  report_.Add("sanitizer.overhead_x", "x",
              Ratio(Sum(rec_.Samples("sanitizer.twin_on")),
                    Sum(rec_.Samples("sanitizer.twin_off"))),
              MK::kLayerHost);
  if (npj_counters_) {
    report_.Add("sim.host_ns_per_tlb_lookup", "ns",
                Ratio(median_of("join.npj") * 1e9,
                      static_cast<double>(npj_counters_->gpu_tlb_lookups)),
                MK::kLayerHost);
  }
  for (ServeKind kind : kServeKinds) {
    const std::string name = std::string("serve.") + ServeKindName(kind);
    report_.Add(name + "_ms", "ms", median_of(name.c_str()) * 1e3,
                MK::kLayerHost);
  }
  report_.Add("serve.submit_us", "us", median_of("serve.submit") * 1e6,
              MK::kLayerHost);
  report_.Add("serve.drain_ms", "ms", median_of("serve.drain") * 1e3,
              MK::kLayerHost);
  report_.Add("serve.requests_per_dispatch", "ratio",
              serve_requests_per_dispatch_, MK::kLayerExact);
  report_.Add("serve.busy_s", "modeled_s", serve_busy_seconds_,
              MK::kLayerExact);
  report_.Add("bench.trace_overhead_frac", "ratio", trace_overhead_frac_,
              MK::kLayerHost);
}

}  // namespace

void Report::Record(bool ok, const std::string& failure) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(failure);
  }
}

void Report::Add(std::string name, std::string unit, double value,
                 MetricKind kind) {
  metrics.push_back({std::move(name), std::move(unit), value, kind});
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"triton-ooc", "npj-ooc",
                                                  "sanitized", "serve-mixed"};
  return kNames;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = {
      "host_mtuples_per_s", "req_ms_p50", "setup_s", "peak_rss_mib"};
  return kNames;
}

const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> kNames = {
      "exec.device_init_s",
      "data.generate_s",
      "serve.init_s",
      "partition.pass1_s",
      "core.triton_join_s",
      "sched.coproc_s",
      "exec.thread_speedup",
      "exec.launches",
      "join.npj_s",
      "sim.host_ns_per_tlb_lookup",
      "sim.tlb_lookups",
      "sim.tlb_miss_ratio",
      "sim.iommu_requests",
      "sim.iommu_walks",
      "sim.link_txns",
      "sim.link_physical_bytes",
      "sanitizer.overhead_x",
      "serve.probe_ms",
      "serve.join_gpu_ms",
      "serve.join_hybrid_ms",
      "serve.join_cpu_ms",
      "serve.aggregate_ms",
      "serve.submit_us",
      "serve.drain_ms",
      "serve.requests_per_dispatch",
      "serve.busy_s",
      "core.cached_fraction",
      "core.spilled_bytes",
      "sched.cpu_fraction",
      "sched.predict_err",
      "modeled_gtuples_per_s",
      "bench.trace_overhead_frac",
  };
  return kNames;
}

util::Status RunWorkload(const Options& opts, Recorder& rec, Report& report) {
  Runner runner(opts, rec, report);
  const std::string& w = opts.workload;
  if (w == "triton-ooc") {
    runner.RunJoinWorkload({false, {{2048, {Op::kTriton, Op::kCoProc}}}},
                           2048);
  } else if (w == "npj-ooc") {
    runner.RunJoinWorkload({false, {{2048, {Op::kNpj}}}}, 2048);
  } else if (w == "sanitized") {
    runner.RunJoinWorkload(
        {true,
         {{128, {Op::kNpjAggregate}}, {256, {Op::kTriton, Op::kCoProc}}}},
        256);
  } else if (w == "serve-mixed") {
    runner.RunServeWorkload();
  } else {
    return util::Status::InvalidArgument("unknown workload '" + w + "'");
  }
  return util::Status::OK();
}

}  // namespace triton::hostbench
