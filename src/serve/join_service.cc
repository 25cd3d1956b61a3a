#include "serve/join_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/triton_aggregate.h"
#include "core/triton_join.h"
#include "data/generator.h"
#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "join/cpu_radix_join.h"
#include "sched/coprocess_scheduler.h"
#include "util/bits.h"
#include "util/logging.h"

namespace triton::serve {

namespace {

/// Integer-exact proportional share of a counter record: each field is
/// scaled by num/den with 128-bit intermediates, so batch attribution is
/// deterministic arithmetic, not floating point.
uint64_t Share(uint64_t v, uint64_t num, uint64_t den) {
  return static_cast<uint64_t>(
      static_cast<unsigned __int128>(v) * num / den);
}

sim::PerfCounters ProportionalShare(const sim::PerfCounters& c, uint64_t num,
                                    uint64_t den) {
  sim::PerfCounters out;
  out.gpu_mem_read = Share(c.gpu_mem_read, num, den);
  out.gpu_mem_write = Share(c.gpu_mem_write, num, den);
  out.gpu_mem_random_write = Share(c.gpu_mem_random_write, num, den);
  out.link_read_payload = Share(c.link_read_payload, num, den);
  out.link_read_physical = Share(c.link_read_physical, num, den);
  out.link_write_payload = Share(c.link_write_payload, num, den);
  out.link_write_physical = Share(c.link_write_physical, num, den);
  out.link_read_txns = Share(c.link_read_txns, num, den);
  out.link_write_txns = Share(c.link_write_txns, num, den);
  out.cpu_mem_read = Share(c.cpu_mem_read, num, den);
  out.cpu_mem_write = Share(c.cpu_mem_write, num, den);
  out.gpu_tlb_lookups = Share(c.gpu_tlb_lookups, num, den);
  out.gpu_tlb_misses = Share(c.gpu_tlb_misses, num, den);
  out.l3_hits = Share(c.l3_hits, num, den);
  out.iommu_requests = Share(c.iommu_requests, num, den);
  out.iommu_walks = Share(c.iommu_walks, num, den);
  out.issue_slots = Share(c.issue_slots, num, den);
  out.tuples = Share(c.tuples, num, den);
  return out;
}

/// Largest tuple count a request may name on either side. Both sides'
/// 16-byte tuples, times the footprint estimate's eight copies, then total
/// at most 2^63 bytes, so no byte size derived from a request wraps.
constexpr uint64_t kMaxRequestTuples = uint64_t{1} << 55;

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kJoin:
      return "join";
    case RequestKind::kAggregate:
      return "aggregate";
    case RequestKind::kProbe:
      return "probe";
  }
  return "unknown";
}

JoinService::JoinService(const sim::HwSpec& hw, const ServiceConfig& config)
    : hw_(hw),
      config_(config),
      arbiter_(hw),
      rng_(config.scheduler_seed) {
  if (config_.max_inflight == 0) config_.max_inflight = 1;
  if (config_.probe_batch_limit == 0) config_.probe_batch_limit = 1;
  if (config_.shared_build_tuples > 0) {
    SharedBuild::Config sb;
    sb.tuples = config_.shared_build_tuples;
    sb.seed = config_.shared_build_seed;
    auto built = SharedBuild::Create(hw_, arbiter_, sb);
    if (built.ok()) {
      shared_build_ = std::move(built).value();
    } else {
      init_status_ = built.status();
    }
  }
  // Queries get equal shares of whatever the shared build left over; more
  // allowed concurrency means smaller carves, which is exactly the
  // contention the service models.
  gpu_share_ = arbiter_.gpu_free() / config_.max_inflight;
  scratchpad_share_ = arbiter_.scratchpad_free() / config_.max_inflight;
}

ResourceRequest JoinService::EstimateFootprint(const Request& request) const {
  const uint64_t page = hw_.tlb.page_bytes;
  ResourceRequest need;
  switch (request.kind) {
    case RequestKind::kProbe:
      // Staged keys + payloads, plus page-rounding slack. The staging
      // physically comes from the shared build's carve; this reservation
      // is the admission-control account of it.
      need.cpu_bytes =
          2 * util::AlignUp(request.s_tuples * sizeof(data::Key), page) +
          page;
      break;
    case RequestKind::kJoin: {
      const uint64_t input =
          (request.r_tuples + request.s_tuples) * data::kTupleBytes;
      // Input relations, both partitioned copies with per-slice padding,
      // and spill headroom.
      need.cpu_bytes = input * 8 + 256 * page;
      // A CPU-only join touches neither GPU memory nor scratchpad: the
      // arbiter can keep it resident alongside GPU-bound queries.
      if (request.backend != exec::Backend::kCpu) {
        need.gpu_bytes = gpu_share_;
        need.scratchpad_bytes = scratchpad_share_;
      }
      break;
    }
    case RequestKind::kAggregate: {
      const uint64_t input = request.s_tuples * data::kTupleBytes;
      need.cpu_bytes = input * 8 + request.r_tuples * data::kTupleBytes +
                       256 * page;
      need.gpu_bytes = gpu_share_;
      need.scratchpad_bytes = scratchpad_share_;
      break;
    }
  }
  return need;
}

util::Status JoinService::Submit(const Request& request) {
  TRITON_RETURN_IF_ERROR(init_status_);
  if (request.s_tuples == 0) {
    return util::Status::InvalidArgument("request needs s_tuples > 0");
  }
  if (request.kind == RequestKind::kJoin && request.r_tuples == 0) {
    return util::Status::InvalidArgument("join request needs r_tuples > 0");
  }
  if (request.r_tuples > kMaxRequestTuples ||
      request.s_tuples > kMaxRequestTuples) {
    return util::Status::InvalidArgument(
        "request tuple counts above 2^55 overflow its byte sizes");
  }
  if (request.kind == RequestKind::kProbe && shared_build_ == nullptr) {
    return util::Status::FailedPrecondition(
        "probe request but no shared build configured "
        "(ServiceConfig::shared_build_tuples == 0)");
  }
  if (pending_.size() >= config_.queue_capacity) {
    ++rejected_[request.tenant];
    return util::Status::ResourceExhausted(
        "admission queue full (capacity " +
        std::to_string(config_.queue_capacity) + ")");
  }
  pending_.push_back(PendingRequest{request, next_request_id_++});
  return util::Status::OK();
}

void JoinService::AdmitPending() {
  while (inflight_.size() < config_.max_inflight && !pending_.empty()) {
    PendingRequest& head = pending_.front();
    const ResourceRequest need = EstimateFootprint(head.request);
    auto res = arbiter_.Reserve(need);
    if (!res.ok()) {
      if (!inflight_.empty()) break;  // a completion will free budget
      // Nothing in flight can ever release budget for this request: fail
      // it now instead of deadlocking the scheduler.
      RequestOutcome out;
      out.id = head.id;
      out.tenant = head.request.tenant;
      out.kind = head.request.kind;
      out.status = res.status();
      outcomes_.push_back(std::move(out));
      pending_.pop_front();
      continue;
    }
    inflight_.push_back(
        InFlight{head.request, head.id, std::move(res).value()});
    pending_.pop_front();
  }
}

util::Status JoinService::Drain() {
  TRITON_RETURN_IF_ERROR(init_status_);
  while (!pending_.empty() || !inflight_.empty()) {
    AdmitPending();
    if (inflight_.empty()) continue;
    DispatchOne();
  }
  return util::Status::OK();
}

void JoinService::DispatchOne() {
  const size_t pick =
      static_cast<size_t>(rng_.NextBounded(inflight_.size()));
  if (inflight_[pick].request.kind == RequestKind::kProbe) {
    // Coalesce every in-flight probe (admission order) up to the limit.
    std::vector<size_t> batch;
    for (size_t i = 0;
         i < inflight_.size() && batch.size() < config_.probe_batch_limit;
         ++i) {
      if (inflight_[i].request.kind == RequestKind::kProbe) {
        batch.push_back(i);
      }
    }
    ExecuteProbeBatch(batch);
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      inflight_.erase(inflight_.begin() + static_cast<int64_t>(*it));
    }
  } else {
    RequestOutcome out = ExecuteQuery(inflight_[pick]);
    out.elapsed += config_.dispatch_overhead_seconds;
    busy_seconds_ += out.elapsed;
    ++dispatches_;
    outcomes_.push_back(std::move(out));
    inflight_.erase(inflight_.begin() + static_cast<int64_t>(pick));
  }
}

RequestOutcome JoinService::ExecuteQuery(const InFlight& query) {
  RequestOutcome out;
  out.id = query.id;
  out.tenant = query.request.tenant;
  out.kind = query.request.kind;

  // A fresh device per query: its TLB state, trace and — thanks to its own
  // allocator — simulated addresses depend only on this query.
  exec::Device dev(arbiter_.CarvedSpec(query.reservation));
  if (query.request.kind == RequestKind::kJoin) {
    data::WorkloadConfig cfg;
    cfg.r_tuples = query.request.r_tuples;
    cfg.s_tuples = query.request.s_tuples;
    cfg.seed = query.request.seed;
    cfg.zipf_theta = query.request.zipf_theta;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    if (!wl.ok()) {
      out.status = wl.status();
      return out;
    }
    util::StatusOr<join::JoinRun> run = join::JoinRun{};
    switch (query.request.backend) {
      case exec::Backend::kCpu: {
        join::CpuRadixJoin cpu_join(
            {.result_mode = join::ResultMode::kAggregate});
        run = cpu_join.Run(dev, wl->r, wl->s);
        break;
      }
      case exec::Backend::kHybrid: {
        sched::CoProcessConfig cfg;
        cfg.result_mode = join::ResultMode::kAggregate;
        cfg.adaptive = true;
        cfg.seed = query.request.seed;
        sched::CoProcessScheduler hybrid(cfg);
        run = hybrid.Run(dev, wl->r, wl->s);
        break;
      }
      case exec::Backend::kGpu: {
        core::TritonJoin join({.result_mode = join::ResultMode::kAggregate});
        run = join.Run(dev, wl->r, wl->s);
        break;
      }
    }
    if (!run.ok()) {
      out.status = run.status();
      return out;
    }
    out.matches = run->matches;
    out.checksum = run->checksum;
    out.elapsed = run->elapsed;
    out.counters = run->totals;
  } else {
    auto rel =
        data::Relation::AllocateCpu(dev.allocator(), query.request.s_tuples);
    if (!rel.ok()) {
      out.status = rel.status();
      return out;
    }
    const uint64_t domain = query.request.r_tuples > 0
                                ? query.request.r_tuples
                                : query.request.s_tuples;
    data::FillForeignKeys(*rel, domain, query.request.seed);
    data::FillPayloads(*rel, query.request.seed ^ 0x9e3779b97f4a7c15ULL);
    core::TritonAggregate agg;
    auto run = agg.Run(dev, *rel);
    if (!run.ok()) {
      out.status = run.status();
      return out;
    }
    out.matches = run->groups;
    out.checksum = run->checksum;
    out.elapsed = run->elapsed;
    out.counters = run->totals;
  }
  return out;
}

void JoinService::ExecuteProbeBatch(const std::vector<size_t>& indices) {
  CHECK(shared_build_ != nullptr);
  CHECK(!indices.empty());
  std::vector<ProbeSpec> specs;
  specs.reserve(indices.size());
  uint64_t total = 0;
  for (size_t i : indices) {
    specs.push_back(ProbeSpec{inflight_[i].request.s_tuples,
                              inflight_[i].request.seed});
    total += inflight_[i].request.s_tuples;
  }
  auto run = shared_build_->RunBatch(specs);
  ++dispatches_;

  if (!run.ok()) {
    for (size_t i : indices) {
      RequestOutcome out;
      out.id = inflight_[i].id;
      out.tenant = inflight_[i].request.tenant;
      out.kind = RequestKind::kProbe;
      out.status = run.status();
      out.batch_size = static_cast<uint32_t>(indices.size());
      outcomes_.push_back(std::move(out));
    }
    return;
  }

  const double batch_elapsed =
      run->elapsed + config_.dispatch_overhead_seconds;
  busy_seconds_ += batch_elapsed;
  for (size_t j = 0; j < indices.size(); ++j) {
    const InFlight& q = inflight_[indices[j]];
    RequestOutcome out;
    out.id = q.id;
    out.tenant = q.request.tenant;
    out.kind = RequestKind::kProbe;
    out.matches = run->results[j].matches;
    out.checksum = run->results[j].checksum;
    out.batch_size = static_cast<uint32_t>(indices.size());
    out.elapsed = batch_elapsed * static_cast<double>(q.request.s_tuples) /
                  static_cast<double>(total);
    out.counters = ProportionalShare(run->counters, q.request.s_tuples, total);
    outcomes_.push_back(std::move(out));
  }
}

std::vector<TenantReport> JoinService::BuildTenantReports() const {
  // Tenant ids in ascending order (std::map keeps them sorted).
  std::map<uint32_t, TenantReport> reports;
  for (const auto& [tenant, count] : rejected_) {
    reports[tenant].tenant = tenant;
    reports[tenant].rejected = count;
  }
  for (const RequestOutcome& out : outcomes_) {
    TenantReport& report = reports[out.tenant];
    report.tenant = out.tenant;
    if (out.status.ok()) {
      ++report.completed;
      report.matches += out.matches;
      report.checksum += out.checksum;
      report.elapsed += out.elapsed;
      report.counters.Merge(out.counters);
    } else {
      ++report.failed;
    }
  }
  std::vector<TenantReport> out;
  out.reserve(reports.size());
  for (auto& [tenant, report] : reports) out.push_back(std::move(report));
  return out;
}

}  // namespace triton::serve
