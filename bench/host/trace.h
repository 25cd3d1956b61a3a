// Host-time recorder for the calls the benchmark makes into the library.
//
// Every timed call is wrapped in a Recorder::Span. A span always measures
// its host duration (std::chrono::steady_clock) and files it under its name,
// which is where the benchmark's metrics come from. With tracing enabled the
// span is also kept as a record — name, start, end, parent span and the rep
// or request id it belongs to, plus counts attached as args — so one run can
// be written out as a Chrome trace-event file (loads in Perfetto and
// chrome://tracing) and summarized as self time per span name.
//
// Spans are kept in memory and written when the run ends. The recorder is
// single-threaded: the benchmark calls the library from one thread, and the
// library's own worker threads never touch it.

#ifndef TRITON_BENCH_HOST_TRACE_H_
#define TRITON_BENCH_HOST_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace triton::hostbench {

/// Self time of one span name: its spans' total duration minus the part of
/// it their child spans cover.
struct SelfTime {
  std::string name;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
};

class Recorder {
 public:
  explicit Recorder(bool tracing);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Times one call from construction to Stop() (or destruction). Spans
  /// nest: a span opened while another is open becomes its child, so they
  /// must end in reverse order of opening, which scoping guarantees.
  class Span {
   public:
    Span(Recorder& rec, std::string name, int64_t id);
    ~Span() { Stop(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double Stop();

    /// Attaches a count to the trace record (ignored when not tracing).
    void Arg(const std::string& key, double value);

   private:
    Recorder& rec_;
    std::string name_;
    double start_ = 0.0;
    double seconds_ = 0.0;
    bool stopped_ = false;
    /// Index into rec_.spans_, or -1 when the span is not traced.
    int64_t record_ = -1;
  };

  /// Seconds since the recorder was created.
  double Now() const;

  /// Turns span records on or off for the spans opened from now on (the
  /// traced run alternates to measure the tracing overhead). Durations are
  /// filed under their names either way.
  void set_tracing(bool on) { tracing_ = on; }

  /// Durations, in seconds and completion order, of every span named
  /// `name` (empty when there was none).
  const std::vector<double>& Samples(const std::string& name) const;
  bool Has(const std::string& name) const { return !Samples(name).empty(); }

  /// Self time per span name over the recorded spans, largest first.
  std::vector<SelfTime> SelfTimes() const;

  /// Writes the recorded spans as a Chrome trace-event JSON document.
  util::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    int64_t id = 0;
    int64_t parent = -1;
    double start = 0.0;
    double end = 0.0;
    std::vector<std::pair<std::string, double>> args;
  };

  const std::chrono::steady_clock::time_point epoch_;
  bool tracing_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<Record> spans_;
  /// Open traced spans, innermost last.
  std::vector<int64_t> open_;
};

/// Writes `doc` to `path`, replacing the file.
util::Status WriteFile(const std::string& path, const std::string& doc);

/// Median of `xs` (0 for an empty set).
double Median(std::vector<double> xs);

/// Nearest-rank percentile `p` in [0, 100] of `xs` (0 for an empty set).
double Percentile(std::vector<double> xs, double p);

}  // namespace triton::hostbench

#endif  // TRITON_BENCH_HOST_TRACE_H_
