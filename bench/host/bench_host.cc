// bench_host: host-time benchmark of the Triton join simulator.
//
//   bench_host --workload=<name> [--seed=42] [--seconds=10] [--threads=3]
//              [--scale=256] [--trace=<trace.json>] [--out=<result.json>]
//
// Runs one workload (triton-ooc, npj-ooc, sanitized, serve-mixed) in this
// process, checks every operator output against an oracle, and prints each
// metric by name with its unit. With --trace the run is the traced run: it
// writes a Chrome trace-event file of every timed call, prints self time
// per span name, and reports the per-layer metrics. --out writes the full
// result (every metric, the failures) as JSON. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
// are the end-to-end ones, or the per-layer ones in the traced run.
//
// Exit codes: 0 all outputs correct, 1 a wrong output or failed call,
// 2 usage error or a binary built without NDEBUG.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/block_executor.h"
#include "trace.h"
#include "util/flags.h"
#include "util/json.h"
#include "workloads.h"

namespace triton::hostbench {
namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEndToEnd:
      return "end_to_end";
    case MetricKind::kLayerHost:
      return "layer_host";
    case MetricKind::kLayerExact:
      return "layer_exact";
  }
  return "?";
}

std::string ResultJson(const Options& opts, const Report& report) {
  util::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(opts.workload);
  w.Key("seed");
  w.Uint(opts.seed);
  w.Key("scale");
  w.Int(opts.scale);
  w.Key("threads");
  w.Uint(opts.threads);
  w.Key("seconds");
  w.Double(opts.seconds);
  w.Key("traced");
  w.Bool(opts.traced);
  w.Key("correct");
  w.Bool(report.failed == 0);
  w.Key("attempted");
  w.Uint(report.attempted);
  w.Key("failed");
  w.Uint(report.failed);
  w.Key("failures");
  w.BeginArray();
  for (const std::string& f : report.failures) w.String(f);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : report.metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Double(m.value);
    w.Key("unit");
    w.String(m.unit);
    w.Key("kind");
    w.String(KindName(m.kind));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

const Metric* Find(const Report& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// The metrics the summary line carries: the gated end-to-end ones, or the
/// per-layer ones in the traced run.
const std::vector<std::string>& SummaryNames(const Options& opts) {
  return opts.traced ? LayerMetricNames() : EndToEndMetricNames();
}

/// The one-line JSON summary that ends stdout.
std::string SummaryLine(const Options& opts, const Report& report) {
  std::string line = "{\"correct\": ";
  line += report.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : SummaryNames(opts)) {
    const Metric* found = Find(report, name);
    if (found == nullptr) continue;
    const Metric& m = *found;
    if (!first) line += ", ";
    first = false;
    line += '"';
    line += util::JsonWriter::Escape(m.name);
    line += "\": {\"value\": ";
    line += util::JsonWriter::FormatDouble(m.value);
    line += ", \"unit\": \"";
    line += util::JsonWriter::Escape(m.unit);
    line += "\"}";
  }
  line += "}}";
  return line;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "bench_host: built without NDEBUG (assertions live); build "
               "bench/host with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  util::Flags flags(argc, argv);
  const std::vector<std::string> known = {"workload", "seed",  "seconds",
                                          "threads",  "scale", "trace",
                                          "out"};
  bool bad = !flags.positional().empty() || !flags.Has("workload");
  for (const std::string& name : flags.names()) {
    bool ok = false;
    for (const std::string& k : known) ok = ok || k == name;
    if (!ok) {
      std::fprintf(stderr, "bench_host: unknown flag --%s\n", name.c_str());
      bad = true;
    }
  }
  Options opts;
  opts.workload = flags.GetString("workload", "");
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  opts.seconds = flags.GetDouble("seconds", 10.0);
  opts.threads = static_cast<uint32_t>(flags.GetInt("threads", 3));
  opts.scale = flags.GetInt("scale", 256);
  const std::string trace_path = flags.GetString("trace", "");
  const std::string out_path = flags.GetString("out", "");
  opts.traced = !trace_path.empty();
  if (bad || opts.seconds < 0 || opts.threads < 1 || opts.scale < 1) {
    std::fprintf(stderr,
                 "usage: bench_host --workload=<name> [--seed=N] "
                 "[--seconds=S] [--threads=N] [--scale=N] [--trace=PATH] "
                 "[--out=PATH]\nworkloads:");
    for (const std::string& w : WorkloadNames()) {
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  exec::BlockExecutor::Global().SetThreads(opts.threads);
  std::printf("bench_host %s | seed %llu | scale 1/%lld | threads %u | %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              static_cast<long long>(opts.scale), opts.threads,
              opts.traced ? "traced" : "untraced");
  std::fflush(stdout);

  Recorder rec(opts.traced);
  Report report;
  const util::Status st = RunWorkload(opts, rec, report);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_host: %s\n", st.ToString().c_str());
    return 2;
  }

  for (const std::string& name : SummaryNames(opts)) {
    if (Find(report, name) == nullptr) {
      report.Record(false, "metric " + name + " not measured");
    }
  }
  for (Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.Record(false, "metric " + m.name + " is not finite");
      m.value = 0.0;  // the JSON summary holds numbers only
    }
  }

  std::printf("\n%-30s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : report.metrics) {
    std::printf("%-30s %16.6g  %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), KindName(m.kind));
  }
  if (opts.traced) {
    std::printf("\n%-30s %8s %12s %12s %7s\n", "span (self time)", "count",
                "total s", "self s", "self %");
    double all_self = 0;
    const std::vector<SelfTime> self = rec.SelfTimes();
    for (const SelfTime& s : self) all_self += s.self_seconds;
    for (const SelfTime& s : self) {
      std::printf("%-30s %8llu %12.4f %12.4f %6.1f%%\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_seconds,
                  s.self_seconds,
                  all_self > 0 ? 100.0 * s.self_seconds / all_self : 0.0);
    }
    const util::Status ts = rec.WriteChromeTrace(trace_path);
    if (ts.ok()) {
      std::printf("wrote trace %s\n", trace_path.c_str());
    } else {
      report.Record(false, "trace: " + ts.ToString());
    }
  }
  if (!out_path.empty()) {
    const util::Status rs = WriteFile(out_path, ResultJson(opts, report));
    if (!rs.ok()) report.Record(false, "result: " + rs.ToString());
  }
  std::printf("\n%llu checked calls, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const std::string& f : report.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", SummaryLine(opts, report).c_str());
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace triton::hostbench

int main(int argc, char** argv) { return triton::hostbench::Main(argc, argv); }
