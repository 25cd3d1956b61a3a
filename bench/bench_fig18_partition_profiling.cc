// Figure 18: profiling the state-of-the-art partitioning algorithms with
// hardware counters over a fanout sweep (4..2048), on ~60 GiB of data read
// from and written to CPU memory:
//   (a) partitioning throughput        (b) tuples per write transaction
//   (c) physical transfer volume       (d) IOMMU requests per tuple
//   (e) issue-slot (compute) load      (f) dominant stall resource
//
// Expected shape (paper): Shared and Hierarchical coalesce writes perfectly
// (8 tuples per 128-byte transaction) while Linear coalesces only
// opportunistically and Standard barely at all; Shared's TLB misses explode
// past fanout 64 while Hierarchical's large flushes keep the miss rate
// orders of magnitude lower, sustaining ~38 GiB/s even at fanout 2048.

#include <cstdio>

#include "bench/bench_common.h"
#include "partition/hierarchical.h"
#include "util/bits.h"
#include "partition/linear.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "partition/standard.h"

namespace triton {
namespace {

int Main(int argc, char** argv) {
  bench::BenchEnv env(argc, argv, "fig18", "Figure 18",
                      "Partitioning algorithm profiling vs fanout",
                      {"mtuples", "fanouts"});
  // ~60 GiB at paper scale (~3840 M 16-byte tuples): roughly twice the
  // 32 GiB translation reach, as in the paper.
  uint64_t n = env.Tuples(env.flags().GetDouble("mtuples", 3840));

  partition::StandardPartitioner standard;
  partition::LinearPartitioner linear;
  partition::SharedPartitioner shared;
  partition::HierarchicalPartitioner hierarchical;
  struct Algo {
    const char* name;
    partition::GpuPartitioner* p;
  } algos[] = {{"Standard", &standard},
               {"Linear", &linear},
               {"Shared", &shared},
               {"Hierarchical", &hierarchical}};

  std::vector<int64_t> fanouts =
      env.quick() ? std::vector<int64_t>{4, 64, 256, 2048}
                  : env.flags().GetIntList(
                        "fanouts", {4, 16, 64, 128, 256, 1024, 2048});

  util::Table table({"algorithm", "fanout", "GiB/s", "tuples/txn",
                     "transfer GiB (2x base)", "IOMMU req/tuple",
                     "issue slot %", "stall"});

  for (const Algo& algo : algos) {
    for (int64_t fanout : fanouts) {
      exec::Device dev(env.hw());
      data::WorkloadConfig cfg;
      cfg.r_tuples = n;
      cfg.s_tuples = 1024;
      auto wl = data::GenerateWorkload(dev.allocator(), cfg);
      CHECK_OK(wl.status());
      partition::ColumnInput input = partition::ColumnInput::Of(wl->r);
      partition::RadixConfig radix{0, util::FloorLog2(fanout)};
      // Hierarchical trades occupancy for L2 buffer capacity at high
      // fanouts (a CUDA launch is occupancy-limited by per-block memory).
      uint32_t blocks =
          algo.p == &hierarchical
              ? partition::HierarchicalRecommendedBlocks(
                    env.hw(), dev.allocator().gpu_free(), radix.fanout())
              : env.hw().gpu.num_sms;
      partition::PartitionLayout layout =
          CpuPrefixSum(dev, input, radix, blocks);
      auto out = dev.allocator().AllocateCpu(layout.padded_tuples() *
                                             sizeof(partition::Tuple));
      CHECK_OK(out.status());
      partition::PartitionRun run =
          algo.p->PartitionColumns(dev, input, layout, *out, {});

      const auto& c = run.record.counters;
      double in_bytes = static_cast<double>(n) * 16.0;
      double gibs = in_bytes / run.Elapsed() / util::kGiB;
      // Physical volume in paper-scale GiB; compare against 2x the base
      // relation (read-once + write-once ideal), as in Figure 18(c).
      double transfer = static_cast<double>(c.LinkPhysicalTotal()) *
                        static_cast<double>(env.scale()) / util::kGiB;
      double issue = run.record.time.compute / run.Elapsed() * 100.0;
      char req[32];
      std::snprintf(req, sizeof(req), "%.2e", c.IommuRequestsPerTuple());
      bench::Measurement meas;
      meas.AddRun(run.Elapsed(), gibs, c);
      env.reporter().Add(
          {.series = algo.name,
           .axis = "fanout",
           .x = static_cast<double>(fanout),
           .has_x = true,
           .label = run.record.time.Bottleneck(),
           .unit = "gib_per_s",
           .m = meas,
           .extra = {{"tuples_per_write_txn", run.TuplesPerWriteTxn()},
                     {"transfer_gib", transfer},
                     {"iommu_req_per_tuple", c.IommuRequestsPerTuple()},
                     {"issue_slot_pct", issue}}});
      table.AddRow({algo.name, std::to_string(fanout),
                    util::FormatDouble(gibs, 1),
                    util::FormatDouble(run.TuplesPerWriteTxn(), 2),
                    util::FormatDouble(transfer, 1), req,
                    util::FormatDouble(issue, 1),
                    run.record.time.Bottleneck()});
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  env.Emit(table, "Partitioning profile (60 GiB-equivalent input)");
  std::printf("note: 'transfer GiB' is scaled back to paper units; the "
              "read+write ideal is %.1f GiB\n",
              2.0 * static_cast<double>(n) * 16.0 *
                  static_cast<double>(env.scale()) / util::kGiB);
  return env.Finish();
}

}  // namespace
}  // namespace triton

int main(int argc, char** argv) { return triton::Main(argc, argv); }
