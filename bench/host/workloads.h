// The host-time benchmark's workloads (see README.md for why each exists).
//
// Every workload times only the calls it makes into the library's public
// functions, checks each call's output against an oracle, and reports
// end-to-end metrics (tracing off) or, in the traced run, per-layer metrics
// gathered from its own spans plus layer probes that fill in the layers it
// does not call itself.

#ifndef TRITON_BENCH_HOST_WORKLOADS_H_
#define TRITON_BENCH_HOST_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "util/status.h"

namespace triton::hostbench {

struct Options {
  std::string workload;
  /// Seeds the data and the serve request mix.
  uint64_t seed = 42;
  /// Measured phase length; timed reps repeat until it has passed.
  double seconds = 10.0;
  uint32_t threads = 3;
  /// Capacity/workload scale divisor (sim::HwSpec::Scaled).
  int64_t scale = 256;
  /// The traced run: alternate traced reps, then run the layer probes.
  bool traced = false;
};

enum class MetricKind {
  /// Seen by a user of the system; reported with tracing off.
  kEndToEnd,
  /// Host time of one layer, measured in the traced run.
  kLayerHost,
  /// A count or modeled quantity of one layer: identical on every run with
  /// the same seed, so any change means the program's work changed.
  kLayerExact,
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  MetricKind kind = MetricKind::kEndToEnd;
};

/// Outcome of one workload run.
struct Report {
  /// Operator calls and service requests whose outputs were checked.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed call.
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  /// Counts one checked call; `failure` describes it when `ok` is false.
  void Record(bool ok, const std::string& failure);
  void Add(std::string name, std::string unit, double value, MetricKind kind);
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// The gated end-to-end metrics every untraced run reports (BENCHMARK.json
/// end_to_end).
const std::vector<std::string>& EndToEndMetricNames();

/// Per-layer metric names every traced run reports (BENCHMARK.json
/// per_layer).
const std::vector<std::string>& LayerMetricNames();

/// Runs `opts.workload`, filling `report`. Fails with InvalidArgument for an
/// unknown workload name.
util::Status RunWorkload(const Options& opts, Recorder& rec, Report& report);

}  // namespace triton::hostbench

#endif  // TRITON_BENCH_HOST_WORKLOADS_H_
