// Shared resident build side for small probe requests.
//
// Many service tenants probe the same dimension table; rebuilding the hash
// table per request would dominate their cost. SharedBuild keeps one
// perfect no-partitioning-join table (join::NpjTable) resident on a
// long-lived private device (its memory held from the MemoryArbiter for
// the service's lifetime) and executes probe requests in batches: the
// scheduler coalesces up to probe_batch_limit small requests into a single
// probe launch, amortizing the per-dispatch overhead and the launch-time
// GPU TLB flush across the batch. The build and every probe are the NPJ's
// own kernels, run as thread blocks; each request is one probe segment.
//
// Each batch stages its probe rows as one relation inside a mem::Allocator
// arena (BeginArena/EndArena), so the simulated addresses — and the
// TLB/counter physics derived from them — are a deterministic function of
// the batch's own allocation sequence, independent of how many batches ran
// before it.

#ifndef TRITON_SERVE_SHARED_BUILD_H_
#define TRITON_SERVE_SHARED_BUILD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "join/no_partitioning_join.h"
#include "serve/arbiter.h"
#include "sim/perf_counters.h"
#include "util/status.h"

namespace triton::serve {

/// One probe request against the shared build side.
struct ProbeSpec {
  /// Probe keys to generate (uniform in [1, build tuples]).
  uint64_t tuples = 0;
  /// Seed for this request's deterministic key/payload stream.
  uint64_t seed = 1;
};

/// One executed batch: per-request results plus the launch's modeled cost.
struct BatchRun {
  std::vector<join::NpjTable::SegmentTotals> results;
  /// Modeled seconds of the single probe launch.
  double elapsed = 0.0;
  /// Counters of the single probe launch (the service attributes them to
  /// requests proportionally; see JoinService).
  sim::PerfCounters counters;
};

/// A resident perfect-hash build side shared by many probe requests.
class SharedBuild {
 public:
  struct Config {
    /// Build-side cardinality (primary keys 1..tuples).
    uint64_t tuples = 0;
    /// Seed of the build relation's deterministic content.
    uint64_t seed = 7;
  };

  /// Builds the resident table on a private device whose memory is held
  /// from `arbiter` until destruction. Fails with ResourceExhausted when
  /// the machine cannot host the table.
  static util::StatusOr<std::unique_ptr<SharedBuild>> Create(
      const sim::HwSpec& hw, MemoryArbiter& arbiter, const Config& config);

  /// Runs one batch of probe requests as a single kernel launch. Results
  /// are per-request and independent of how requests were grouped into
  /// batches (the batching-equivalence property serve_test checks).
  util::StatusOr<BatchRun> RunBatch(const std::vector<ProbeSpec>& specs);

  uint64_t tuples() const { return config_.tuples; }
  exec::Device& device() { return *device_; }

 private:
  SharedBuild() = default;

  Config config_;
  Reservation reservation_;
  std::unique_ptr<exec::Device> device_;
  data::Relation build_;
  join::NpjTable table_;
};

}  // namespace triton::serve

#endif  // TRITON_SERVE_SHARED_BUILD_H_
