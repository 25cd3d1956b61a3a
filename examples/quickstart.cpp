// Quickstart: join two relations with the Triton join and inspect the run.
//
// Builds a PK/FK workload, runs the Triton join on the simulated
// AC922/NVLink machine, validates the result, and prints throughput, the
// per-kernel phase breakdown, cache statistics and interconnect counters.
//
//   ./quickstart [--mtuples=512] [--scale=64] [--ratio=3]
//                [--backend=cpu|gpu|hybrid]
//
// --backend selects the execution engine: the GPU Triton join (default),
// the CPU-only radix join, or the heterogeneous co-processing scheduler
// that splits the join across both processors from the GPU rate of its
// first pair and the CPU pair cost, and rebalances adaptively between
// morsel waves.

#include <cstdio>
#include <string>

#include "core/triton_join.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "exec/device.h"
#include "join/common.h"
#include "join/cpu_radix_join.h"
#include "sched/coprocess_scheduler.h"
#include "sim/hw_spec.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

using namespace triton;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int64_t scale = flags.GetInt("scale", 64);
  const double mtuples = flags.GetDouble("mtuples", 512);
  const int64_t ratio = flags.GetInt("ratio", 1);
  auto backend = exec::ParseBackend(flags.GetString("backend", "gpu"));
  if (!backend.ok()) {
    std::fprintf(stderr, "backend: %s\n",
                 backend.status().ToString().c_str());
    return 1;
  }

  // 1. Describe the machine: the paper's IBM AC922 (POWER9 + V100 over
  //    NVLink 2.0), with capacities scaled down so the run fits this host.
  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(static_cast<double>(scale));
  exec::Device dev(hw);
  std::printf("machine : %s (capacities scaled 1/%lld)\n", hw.name.c_str(),
              static_cast<long long>(scale));

  // 2. Generate the paper's workload: R holds shuffled primary keys, S
  //    uniform foreign keys; 16-byte tuples in column layout.
  const uint64_t r_tuples =
      static_cast<uint64_t>(mtuples * 1024 * 1024 / static_cast<double>(scale));
  const uint64_t s_tuples = r_tuples * static_cast<uint64_t>(ratio);
  data::WorkloadConfig cfg;
  cfg.r_tuples = r_tuples;
  cfg.s_tuples = s_tuples;
  auto wl = data::GenerateWorkload(dev.allocator(), cfg);
  if (!wl.ok()) {
    std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
    return 1;
  }
  std::printf("workload: |R| = %llu, |S| = %llu tuples (%s total)\n",
              static_cast<unsigned long long>(r_tuples),
              static_cast<unsigned long long>(s_tuples),
              util::FormatBytes((r_tuples + s_tuples) * 16).c_str());

  // 3. Run the join on the selected backend.
  std::printf("backend : %s\n", exec::BackendName(backend.value()));
  core::TritonJoin join;
  sched::CoProcessScheduler hybrid({.adaptive = true});
  util::StatusOr<join::JoinRun> run = join::JoinRun{};
  switch (backend.value()) {
    case exec::Backend::kCpu: {
      join::CpuRadixJoin cpu_join;
      run = cpu_join.Run(dev, wl->r, wl->s);
      break;
    }
    case exec::Backend::kHybrid:
      run = hybrid.Run(dev, wl->r, wl->s);
      break;
    case exec::Backend::kGpu:
      run = join.Run(dev, wl->r, wl->s);
      break;
  }
  if (!run.ok()) {
    std::fprintf(stderr, "join: %s\n", run.status().ToString().c_str());
    return 1;
  }

  // 4. Validate and report.
  if (run->matches != s_tuples) {
    std::fprintf(stderr, "FAIL: expected %llu matches, got %llu\n",
                 static_cast<unsigned long long>(s_tuples),
                 static_cast<unsigned long long>(run->matches));
    return 1;
  }
  std::printf("matches : %llu (validated)\n",
              static_cast<unsigned long long>(run->matches));
  std::printf("elapsed : %s (simulated)\n",
              util::FormatSeconds(run->elapsed).c_str());
  std::printf("speed   : %s\n",
              util::FormatTupleRate(run->Throughput(r_tuples, s_tuples))
                  .c_str());
  if (backend.value() == exec::Backend::kGpu) {
    std::printf(
        "radix   : %u + %u bits | cached %.0f%% of state, spilled %s\n",
        join.stats().bits1, join.stats().bits2,
        join.stats().cached_fraction * 100.0,
        util::FormatBytes(join.stats().spilled_bytes).c_str());
  } else if (backend.value() == exec::Backend::kHybrid) {
    const sched::CoProcessStats& st = hybrid.stats();
    std::printf(
        "split   : %u cpu + %u gpu pairs (cpu share %.0f%% -> %.0f%%) | "
        "cached %.0f%%, spilled %s\n",
        st.cpu_pairs, st.gpu_pairs, st.initial_cpu_fraction * 100.0,
        st.final_cpu_fraction * 100.0, st.cached_fraction * 100.0,
        util::FormatBytes(st.spilled_bytes).c_str());
  }

  util::Table phases({"phase", "time", "bottleneck", "link", "compute"});
  const char* names[] = {"prefix_sum1", "partition1", "prefix_sum2",
                         "partition2", "sched",       "join"};
  for (const char* name : names) {
    double total = 0.0, link = 0.0, comp = 0.0;
    const char* bound = "-";
    for (const auto& ph : run->phases) {
      if (ph.name.find(name) == std::string::npos) continue;
      total += ph.Elapsed();
      link += ph.time.link;
      comp += ph.time.compute;
      bound = ph.time.Bottleneck();
    }
    phases.AddRow({name, util::FormatSeconds(total), bound,
                   util::FormatSeconds(link), util::FormatSeconds(comp)});
  }
  phases.Print("Kernel phases (sums over all launches; join phase overlaps)");

  std::printf(
      "\ninterconnect: read %s (payload %s), write %s | IOMMU req/tuple "
      "%.2e\n",
      util::FormatBytes(run->totals.link_read_physical).c_str(),
      util::FormatBytes(run->totals.link_read_payload).c_str(),
      util::FormatBytes(run->totals.link_write_physical).c_str(),
      run->totals.IommuRequestsPerTuple());
  return 0;
}
