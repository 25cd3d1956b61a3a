// Shared harness for the per-figure benchmark binaries.
//
// Every bench reproduces one figure of the paper: it sweeps the same axis,
// runs the same algorithms, and prints the same series — in paper units.
// Workloads are scaled down by `--scale` (default 64) together with the
// hardware capacities (see sim::HwSpec::Scaled), so axis labels still read
// in *paper-scale* million tuples while the simulation stays laptop-sized.
// Throughput is scale-invariant (both work and time shrink by the same
// factor), so G Tuples/s values are directly comparable to the paper's.
//
// Common flags: --scale=N, --runs=N (repetitions; the paper uses 10),
// --csv (emit CSV after the table), --json[=path] (write the canonical
// machine-readable report, default BENCH_<figure>.json in the working
// directory — see bench/reporter.h), --quick (coarser sweeps), --threads=N
// (host worker threads simulating thread blocks; 0 = TRITON_THREADS env or
// hardware concurrency — results are bit-identical at any setting),
// --jobs=N (independent measurement cells run concurrently on N host
// threads in benches that support it; forces --threads=1 so the cell is
// the unit of parallelism — results are bit-identical at any setting).
// Unknown flags are an error: a typo like --thread=8 would otherwise
// silently run with the default and poison a regression baseline. So are
// a --threads outside [0, exec::BlockExecutor::kMaxThreads] and a --scale
// below 1.

#ifndef TRITON_BENCH_BENCH_COMMON_H_
#define TRITON_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "bench/reporter.h"
#include "data/generator.h"
#include "exec/block_executor.h"
#include "exec/device.h"
#include "sim/hw_spec.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace triton::bench {

/// Parsed environment shared by all bench binaries.
///
/// `figure_id` is the short stable identifier used for the report file name
/// ("fig13", "ablation", "ext_skew"); `figure` and `title` are the
/// human-readable heading. Benches with figure-specific flags declare them
/// in `bench_flags` so flag validation can reject typos.
class BenchEnv {
 public:
  BenchEnv(int argc, char** argv, const char* figure_id, const char* figure,
           const char* title,
           std::initializer_list<const char*> bench_flags = {})
      : flags_(argc, argv),
        scale_(flags_.GetInt("scale", 64)),
        runs_(flags_.GetInt("runs", 1)),
        jobs_(flags_.GetInt("jobs", 1)),
        csv_(flags_.GetBool("csv", false)),
        quick_(flags_.GetBool("quick", false)),
        start_(std::chrono::steady_clock::now()) {
    ValidateFlags(bench_flags);
    hw_ = sim::HwSpec::Ac922NvLink().Scaled(static_cast<double>(scale_));
    if (flags_.Has("json")) {
      json_path_ = flags_.GetString("json", "");
      // Bare --json (parsed as boolean true) selects the default path.
      if (json_path_.empty() || json_path_ == "true") {
        json_path_ = std::string("BENCH_") + figure_id + ".json";
      }
    }
    // Cell-level parallelism owns the host threads: the shared block
    // executor must run blocks inline on each cell's thread (its Run is
    // not reentrant), so --jobs > 1 pins it to one thread.
    exec::BlockExecutor::Global().SetThreads(
        jobs_ > 1 ? 1
                  : static_cast<uint32_t>(flags_.GetInt("threads", 0)));
    reporter_.Configure(figure_id, figure, title, hw_.name, scale_, runs_,
                        quick_);
    std::printf("=== %s: %s ===\n", figure, title);
    std::printf("machine: %s | scale 1/%lld | runs %lld | threads %u\n",
                hw_.name.c_str(), static_cast<long long>(scale_),
                static_cast<long long>(runs_),
                exec::BlockExecutor::Global().threads());
  }

  const util::Flags& flags() const { return flags_; }
  int64_t scale() const { return scale_; }
  int64_t runs() const { return runs_; }
  int64_t jobs() const { return jobs_; }
  bool csv() const { return csv_; }
  bool quick() const { return quick_; }
  const sim::HwSpec& hw() const { return hw_; }

  /// The figure's structured report; benches add one Point per series cell.
  Reporter& reporter() { return reporter_; }

  /// Simulated tuple count for a paper-scale size in million tuples.
  uint64_t Tuples(double paper_mtuples) const {
    uint64_t n = static_cast<uint64_t>(paper_mtuples * 1024.0 * 1024.0 /
                                       static_cast<double>(scale_));
    return n < 1024 ? 1024 : n;
  }

  /// The default Figure 13-style sweep of build/probe sizes (paper M
  /// tuples per relation).
  std::vector<double> SizeSweep() const {
    if (quick_) return {128, 512, 2048};
    return {128, 256, 512, 768, 1024, 1536, 2048};
  }

  /// Emits a finished table (and CSV when requested).
  void Emit(const util::Table& table, const std::string& title) const {
    table.Print(title);
    if (csv_) std::printf("\nCSV\n%s", table.ToCsv().c_str());
  }

  /// Final step of every bench Main: writes the JSON report when --json was
  /// given and prints the host wall-clock. Wall-clock and thread count are
  /// *not* part of the JSON — the report carries modeled quantities only,
  /// so reruns (at any --threads) are byte-identical. Returns the process
  /// exit code.
  int Finish() {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::printf("host wall-clock %.2f s (stdout only; not in the report)\n",
                wall);
    if (!json_path_.empty()) {
      util::Status st = reporter_.WriteFile(json_path_);
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s (%zu points)\n", json_path_.c_str(),
                  reporter_.points().size());
    }
    return 0;
  }

 private:
  /// Rejects flags (and stray positional arguments) this bench does not
  /// understand, and thread counts and scales it cannot run, listing the
  /// flags it knows.
  void ValidateFlags(std::initializer_list<const char*> bench_flags) {
    std::vector<std::string> known = {"scale",   "runs", "csv", "quick",
                                      "threads", "json", "jobs"};
    for (const char* f : bench_flags) known.push_back(f);
    bool bad = false;
    for (const std::string& name : flags_.names()) {
      bool ok = false;
      for (const std::string& k : known) ok = ok || k == name;
      if (!ok) {
        std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
        bad = true;
      }
    }
    for (const std::string& arg : flags_.positional()) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      bad = true;
    }
    const int64_t threads = flags_.GetInt("threads", 0);
    if (threads < 0 || threads > exec::BlockExecutor::kMaxThreads) {
      std::fprintf(stderr, "error: --threads=%lld is outside [0, %u]\n",
                   static_cast<long long>(threads),
                   exec::BlockExecutor::kMaxThreads);
      bad = true;
    }
    if (scale_ < 1) {
      std::fprintf(stderr, "error: --scale=%lld is below 1\n",
                   static_cast<long long>(scale_));
      bad = true;
    }
    if (bad) {
      std::fprintf(stderr, "known flags:");
      for (const std::string& k : known) {
        std::fprintf(stderr, " --%s", k.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }

  util::Flags flags_;
  int64_t scale_;
  int64_t runs_;
  int64_t jobs_;
  bool csv_;
  bool quick_;
  sim::HwSpec hw_;
  std::string json_path_;
  Reporter reporter_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs independent measurement cells concurrently on `jobs` host threads
/// (the calling thread participates; jobs <= 1 runs them in order inline).
/// Cells are claimed in index order from an atomic counter. Each cell must
/// be self-contained — build its own Device, generate its own workload,
/// and deposit results into its own pre-allocated slot — and the caller
/// must report the slots in index order after RunCells returns. Modeled
/// quantities are pure functions of each cell's inputs, so the report is
/// byte-identical at any --jobs setting; only host wall-clock changes.
inline void RunCells(int64_t jobs,
                     const std::vector<std::function<void()>>& cells) {
  if (jobs <= 1 || cells.size() <= 1) {
    for (const auto& cell : cells) cell();
    return;
  }
  std::atomic<size_t> next{0};
  auto drain = [&] {
    size_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) <
           cells.size()) {
      cells[i]();
    }
  };
  std::vector<std::thread> pool;
  const size_t extra =
      std::min<size_t>(static_cast<size_t>(jobs), cells.size()) - 1;
  pool.reserve(extra);
  for (size_t t = 0; t < extra; ++t) pool.emplace_back(drain);
  drain();
  for (auto& th : pool) th.join();
}

/// Runs `fn` (returning simulated seconds) `runs` times on fresh seeds and
/// returns summary statistics.
template <typename Fn>
util::RunningStat Repeat(int64_t runs, Fn&& fn) {
  util::RunningStat stat;
  for (int64_t i = 0; i < runs; ++i) stat.Add(fn(static_cast<uint64_t>(i)));
  return stat;
}

/// Formats a throughput in G tuples/s with 3 digits.
inline std::string GTuples(double tuples_per_sec) {
  return util::FormatDouble(tuples_per_sec / 1e9, 3);
}

}  // namespace triton::bench

#endif  // TRITON_BENCH_BENCH_COMMON_H_
