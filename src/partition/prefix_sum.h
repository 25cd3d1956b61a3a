// Prefix-sum (histogram) phase of radix partitioning, on GPU or CPU.
//
// The prefix sum reads only the key column of the input (one column per
// relation thanks to the columnar layout — Section 6.2.8), builds
// per-block histograms, and converts them into the padded partition-major
// layout. Either processor can run it: the GPU streams the keys over the
// interconnect (bounded by link bandwidth, ~63 GiB/s), while the CPU scans
// at memory bandwidth (up to ~130 GiB/s) — the Figure 20 comparison.

#ifndef TRITON_PARTITION_PREFIX_SUM_H_
#define TRITON_PARTITION_PREFIX_SUM_H_

#include <string>

#include "exec/device.h"
#include "partition/layout.h"
#include "partition/radix.h"
#include "util/units.h"

namespace triton::partition {

/// SM-cycles charged per tuple by the GPU prefix-sum kernel (hash + local
/// histogram increment; calibrated against the paper's time breakdown).
inline constexpr double kPrefixSumCyclesPerTuple = 3.0;

/// Bandwidth (bytes/s) of a CPU scan over `bytes`: the scan saturates
/// memory bandwidth, but large out-of-cache scans lose some efficiency (the
/// paper measures 129.6 GiB/s dropping to 96 GiB/s for the 2048 M tuple
/// workload). Sizes are judged at paper scale.
inline double CpuScanBandwidth(const sim::HwSpec& hw, uint64_t bytes) {
  double bw = hw.cpu.scan_bw;
  if (static_cast<double>(bytes) * hw.scale > 8.0 * util::kGiB) bw *= 0.74;
  return bw;
}

/// Number of tuples the GPU prefix sum copies into GPU memory alongside
/// counting when the destination pass spills (the paper's prefix sum
/// copies data to avoid redundant transfers; modelled by callers).
struct PrefixSumOptions {
  /// SMs allocated (0 = all).
  uint32_t sms = 0;
  /// Kernel name in the device trace.
  std::string name = "prefix_sum";
};

/// Runs the prefix sum on the GPU over `input` split into `num_blocks`
/// chunks. Returns the layout; the kernel is recorded in the device trace.
template <typename Input>
PartitionLayout GpuPrefixSum(exec::Device& dev, const Input& input,
                             RadixConfig radix, uint32_t num_blocks,
                             const PrefixSumOptions& opts = {}) {
  PartitionLayout layout;
  exec::KernelConfig cfg;
  cfg.name = opts.name;
  cfg.sms = opts.sms;
  dev.Launch(cfg, [&](exec::KernelContext& ctx) {
    const uint64_t n = input.size();
    const uint64_t chunk = (n + num_blocks - 1) / num_blocks;
    std::vector<std::vector<uint64_t>> histograms(
        num_blocks, std::vector<uint64_t>(radix.fanout(), 0));
    ctx.ForEachBlock(num_blocks, [&](exec::KernelContext& sub, uint32_t b) {
      uint64_t begin = static_cast<uint64_t>(b) * chunk;
      uint64_t end = std::min(n, begin + chunk);
      if (begin >= end) return;
      sub.SetSanitizerBlock(b);
      input.AccountReadKeys(sub, begin, end);
      ComputeBlockHistogram(input, radix, begin, end, histograms[b]);
    });
    layout = PartitionLayout(radix, histograms);
    ctx.AddTuples(n);
    ctx.Charge(static_cast<uint64_t>(n * kPrefixSumCyclesPerTuple));
  });
  return layout;
}

/// Runs the prefix sum on the CPU: functionally identical, but timed by the
/// CPU's scan bandwidth and recorded as a CPU phase in the device trace.
template <typename Input>
PartitionLayout CpuPrefixSum(exec::Device& dev, const Input& input,
                             RadixConfig radix, uint32_t num_blocks,
                             const PrefixSumOptions& opts = {}) {
  auto histograms = ComputeHistograms(input, radix, num_blocks);
  PartitionLayout layout(radix, histograms);

  exec::KernelRecord record;
  record.name = opts.name + "_cpu";
  record.sms = 0;
  const uint64_t key_bytes = input.size() * sizeof(data::Key);
  record.counters.cpu_mem_read = key_bytes;
  record.counters.tuples = input.size();
  record.time.cpu_mem = static_cast<double>(key_bytes) /
                        CpuScanBandwidth(dev.hw(), key_bytes);
  dev.Record(record);
  return layout;
}

}  // namespace triton::partition

#endif  // TRITON_PARTITION_PREFIX_SUM_H_
