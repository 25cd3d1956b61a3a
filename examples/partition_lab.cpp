// Partition lab: explore the four GPU radix-partitioning algorithms at any
// fanout and inspect the hardware counters that explain their behaviour —
// flush granularity, write coalescing, interconnect overhead and TLB
// pressure (the Section 4 design space).
//
//   ./partition_lab [--fanout=512] [--mtuples=512] [--scale=64]
//                   [--dest=cpu|gpu]

#include <cstdio>

#include "data/generator.h"
#include "exec/device.h"
#include "partition/cpu_swwc.h"
#include "partition/hierarchical.h"
#include "partition/linear.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "partition/standard.h"
#include "sim/hw_spec.h"
#include "util/bits.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/units.h"

using namespace triton;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int64_t scale = flags.GetInt("scale", 64);
  const int64_t fanout = flags.GetInt("fanout", 512);
  const double mtuples = flags.GetDouble("mtuples", 512);
  const bool gpu_dest = flags.GetString("dest", "cpu") == "gpu";

  sim::HwSpec hw = sim::HwSpec::Ac922NvLink().Scaled(static_cast<double>(scale));
  const uint64_t n = static_cast<uint64_t>(
      mtuples * 1024 * 1024 / static_cast<double>(scale));
  const uint32_t bits = util::CeilLog2(static_cast<uint64_t>(fanout));

  std::printf("fanout %lld (%u bits), %llu tuples, destination: %s memory\n",
              static_cast<long long>(fanout), bits,
              static_cast<unsigned long long>(n), gpu_dest ? "GPU" : "CPU");
  std::printf("SWWC buffer: %u tuples/partition in the 64 KiB scratchpad\n\n",
              partition::SwwcBufferTuples(hw.gpu.scratchpad_bytes,
                                          1u << bits));

  partition::StandardPartitioner standard;
  partition::LinearPartitioner linear;
  partition::SharedPartitioner shared;
  partition::HierarchicalPartitioner hierarchical;
  struct Entry {
    const char* name;
    partition::GpuPartitioner* p;
  } algos[] = {{"Standard", &standard},
               {"Linear", &linear},
               {"Shared", &shared},
               {"Hierarchical", &hierarchical}};

  util::Table table({"algorithm", "GiB/s", "flushes", "tuples/txn",
                     "link overhead %", "TLB misses", "bottleneck"});
  for (const Entry& algo : algos) {
    exec::Device dev(hw);
    data::WorkloadConfig cfg;
    cfg.r_tuples = n;
    cfg.s_tuples = 1024;
    auto wl = data::GenerateWorkload(dev.allocator(), cfg);
    if (!wl.ok()) {
      std::fprintf(stderr, "%s\n", wl.status().ToString().c_str());
      return 1;
    }
    partition::ColumnInput input = partition::ColumnInput::Of(wl->r);
    partition::RadixConfig radix{0, bits};
    uint32_t blocks =
        algo.p == &hierarchical
            ? partition::HierarchicalRecommendedBlocks(
                  hw, dev.allocator().gpu_free(), radix.fanout())
            : hw.gpu.num_sms;
    partition::PartitionLayout layout =
        CpuPrefixSum(dev, input, radix, blocks);
    uint64_t bytes = layout.padded_tuples() * sizeof(partition::Tuple);
    auto out = gpu_dest ? dev.allocator().AllocateGpu(bytes)
                        : dev.allocator().AllocateCpu(bytes);
    if (!out.ok()) {
      std::fprintf(stderr, "output: %s\n", out.status().ToString().c_str());
      return 1;
    }
    auto run = algo.p->PartitionColumns(dev, input, layout, *out, {});
    const auto& c = run.record.counters;
    double overhead =
        c.link_write_payload > 0
            ? (static_cast<double>(c.link_write_physical) /
                   static_cast<double>(c.link_write_payload) -
               1.0) * 100.0
            : 0.0;
    table.AddRow({algo.name,
                  util::FormatDouble(static_cast<double>(n) * 16.0 /
                                         run.Elapsed() / util::kGiB,
                                     1),
                  std::to_string(run.flushes),
                  util::FormatDouble(run.TuplesPerWriteTxn(), 2),
                  util::FormatDouble(overhead, 1),
                  std::to_string(c.gpu_tlb_misses),
                  run.record.time.Bottleneck()});
  }
  table.Print("Partitioning algorithms head to head");
  return 0;
}
