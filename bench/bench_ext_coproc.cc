// Extension experiment (beyond the paper): heterogeneous co-processing.
//
// Figure 16 compares the CPU-only and GPU-only radix joins as two bars.
// This bench turns those bars into a continuous curve: the co-processing
// scheduler splits every join across both processors at partition-pair
// granularity, so the CPU share sweeps 0 (the Triton join) through 1
// (every pair joined on the CPU, the GPU still running the shared pass-1
// front). The adaptive point starts from the split that equalizes the GPU
// rate observed on pair 0 and the CPU pair cost, and rebalances between
// morsel waves.
//
// Series (per swept size):
//  - cpu-only:        join::CpuRadixJoin, the paper's CPU baseline.
//  - gpu-only:        core::TritonJoin, the paper's GPU join.
//  - hybrid-adaptive: the co-processing scheduler, derived split plus
//                     adaptive rebalancing.
//  - sweep@<size>M:   the hybrid at fixed split ratios 0..1 (axis is the
//                     CPU share), one series per size.
//
// Expected shape (locked by the committed baseline): hybrid-adaptive is at
// least as fast as the best single backend at every size, and each sweep
// curve is unimodal — it descends from ratio 1 to the optimum
// and ascends again toward pure-GPU only if the GPU was the slower side.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/triton_join.h"
#include "data/generator.h"
#include "join/common.h"
#include "join/cpu_radix_join.h"
#include "sched/coprocess_scheduler.h"
#include "util/units.h"

namespace triton {
namespace {

struct Cell {
  double seconds = 0.0;
  uint64_t matches = 0;
  uint64_t checksum = 0;
  sim::PerfCounters totals;
  sched::CoProcessStats stats;
};

/// One join on a fresh device. `ratio` < 0 with adaptive=true is the
/// adaptive hybrid; ratio in [0,1] the fixed split; backend "cpu"/"gpu"
/// the single-backend baselines.
Cell RunCell(const sim::HwSpec& hw, uint64_t n, const std::string& backend,
             double ratio, bool adaptive) {
  exec::Device dev(hw);
  data::WorkloadConfig cfg;
  cfg.r_tuples = n;
  cfg.s_tuples = n;
  cfg.seed = 42;
  auto wl = data::GenerateWorkload(dev.allocator(), cfg);
  CHECK_OK(wl.status());

  Cell cell;
  util::StatusOr<join::JoinRun> run = join::JoinRun{};
  if (backend == "cpu") {
    join::CpuRadixJoin cpu({.result_mode = join::ResultMode::kAggregate});
    run = cpu.Run(dev, wl->r, wl->s);
  } else if (backend == "gpu") {
    core::TritonJoin gpu({.result_mode = join::ResultMode::kAggregate});
    run = gpu.Run(dev, wl->r, wl->s);
  } else {
    sched::CoProcessConfig sc;
    sc.result_mode = join::ResultMode::kAggregate;
    sc.split_ratio = ratio;
    sc.adaptive = adaptive;
    sched::CoProcessScheduler hybrid(sc);
    run = hybrid.Run(dev, wl->r, wl->s);
    if (run.ok()) cell.stats = hybrid.stats();
  }
  CHECK_OK(run.status());
  CHECK_EQ(run->matches, n);
  cell.seconds = run->elapsed;
  cell.matches = run->matches;
  cell.checksum = run->checksum;
  cell.totals = run->totals;
  return cell;
}

int Main(int argc, char** argv) {
  bench::BenchEnv env(argc, argv, "ext_coproc",
                      "Extension: CPU+GPU co-processing",
                      "Fig. 16's two bars as a split-ratio curve");
  const std::vector<double> ratios = {0.0,   0.0625, 0.125, 0.1875, 0.25,
                                      0.375, 0.5,    0.75,  1.0};

  util::Table table({"mtuples", "cpu-only", "gpu-only", "hybrid",
                     "cpu share", "best fixed"});
  for (double size : env.SizeSweep()) {
    const uint64_t n = env.Tuples(size);
    const std::string label = util::FormatDouble(size, 0) + "M";

    Cell cpu = RunCell(env.hw(), n, "cpu", 0.0, false);
    Cell gpu = RunCell(env.hw(), n, "gpu", 0.0, false);
    Cell ada = RunCell(env.hw(), n, "hybrid", -1.0, true);
    // All backends compute the same join.
    CHECK_EQ(cpu.checksum, gpu.checksum);
    CHECK_EQ(ada.checksum, gpu.checksum);

    const double tuples = static_cast<double>(2 * n);
    auto add = [&](const std::string& series, const std::string& axis,
                   double x, const Cell& cell,
                   std::vector<std::pair<std::string, double>> extra = {}) {
      bench::Measurement m;
      m.AddRun(cell.seconds, tuples / cell.seconds / 1e9, cell.totals);
      bench::Point point;
      point.series = series;
      point.axis = axis;
      point.x = x;
      point.has_x = true;
      point.label = label;
      point.unit = "gtuples_per_s";
      point.m = m;
      point.extra = std::move(extra);
      env.reporter().Add(point);
    };
    add("cpu-only", "mtuples_per_relation", size, cpu);
    add("gpu-only", "mtuples_per_relation", size, gpu);
    add("hybrid-adaptive", "mtuples_per_relation", size, ada,
        {{"cpu_share", ada.stats.final_cpu_fraction},
         {"pairs", static_cast<double>(ada.stats.pairs_total)},
         {"cpu_pairs", static_cast<double>(ada.stats.cpu_pairs)}});

    double best_fixed = 0.0;
    double best_fixed_seconds = -1.0;
    for (double ratio : ratios) {
      Cell cell = RunCell(env.hw(), n, "hybrid", ratio, false);
      CHECK_EQ(cell.checksum, gpu.checksum);
      add("sweep@" + label, "cpu_share", ratio, cell,
          {{"cpu_pairs", static_cast<double>(cell.stats.cpu_pairs)}});
      if (best_fixed_seconds < 0.0 || cell.seconds < best_fixed_seconds) {
        best_fixed_seconds = cell.seconds;
        best_fixed = ratio;
      }
      std::printf(".");
      std::fflush(stdout);
    }

    table.AddRow({label, util::FormatSeconds(cpu.seconds),
                  util::FormatSeconds(gpu.seconds),
                  util::FormatSeconds(ada.seconds),
                  util::FormatDouble(ada.stats.final_cpu_fraction, 3),
                  util::FormatDouble(best_fixed, 4)});
  }
  std::printf("\n");
  env.Emit(table, "Join time: single backends vs co-processing split");
  return env.Finish();
}

}  // namespace
}  // namespace triton

int main(int argc, char** argv) { return triton::Main(argc, argv); }
