#include "join/cpu_partitioned_join.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "join/scratch_join.h"
#include "partition/cpu_swwc.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "util/bits.h"

namespace triton::join {

namespace {

/// Derives the first-pass bits so a partition pair plus its refined copy
/// (staging + second-pass output, double-buffered) fits the GPU memory:
/// pairs are limited to a quarter of the capacity.
uint32_t DeriveBits1(const sim::HwSpec& hw, uint64_t total_bytes) {
  uint64_t quarter = hw.gpu_mem.capacity / 4;
  uint32_t bits = util::CeilLog2(util::CeilDiv(total_bytes, quarter));
  return std::clamp(bits, 1u, 12u);
}

/// Derives the total bits so build partitions fit the scratchpad table.
uint32_t DeriveTotalBits(uint64_t r_tuples, uint32_t scratch_tuples) {
  return util::CeilLog2(
      util::CeilDiv(r_tuples, std::max<uint64_t>(scratch_tuples / 2, 1)));
}

}  // namespace

util::StatusOr<JoinRun> CpuPartitionedJoin::Run(exec::Device& dev,
                                                const data::Relation& r,
                                                const data::Relation& s) {
  JoinRun run;
  const uint64_t total_bytes =
      (r.rows() + s.rows()) * sizeof(partition::Tuple);
  constexpr HashScheme kScheme = HashScheme::kBucketChaining;
  ScratchJoiner joiner(kScheme, dev.hw().gpu.scratchpad_bytes);
  const uint32_t bits1 = DeriveBits1(dev.hw(), total_bytes);
  const uint32_t total_bits =
      std::max(DeriveTotalBits(r.rows(), joiner.MaxBuildTuples()), bits1);
  const uint32_t bits2 = total_bits - bits1;

  dev.ClearTrace();
  partition::RadixConfig radix1{0, bits1};
  const uint32_t cpu_blocks = dev.hw().cpu.cores;

  // --- CPU partitions both relations into CPU memory ---
  partition::ColumnInput r_in = partition::ColumnInput::Of(r);
  partition::ColumnInput s_in = partition::ColumnInput::Of(s);
  partition::PartitionLayout r_layout1(
      radix1, partition::ComputeHistograms(r_in, radix1, cpu_blocks));
  partition::PartitionLayout s_layout1(
      radix1, partition::ComputeHistograms(s_in, radix1, cpu_blocks));
  auto r_part = dev.allocator().AllocateCpu(r_layout1.padded_tuples() *
                                            sizeof(partition::Tuple));
  if (!r_part.ok()) return r_part.status();
  auto s_part = dev.allocator().AllocateCpu(s_layout1.padded_tuples() *
                                            sizeof(partition::Tuple));
  if (!s_part.ok()) return s_part.status();

  partition::CpuSwwcPartitioner cpu_partitioner;
  partition::PartitionOptions copts;
  copts.name = "cpu_partition_r";
  cpu_partitioner.PartitionColumns(dev, r_in, r_layout1, *r_part, copts);
  copts.name = "cpu_partition_s";
  cpu_partitioner.PartitionColumns(dev, s_in, s_layout1, *s_part, copts);

  // --- Working-set staging in GPU memory ---
  uint64_t max_pair = 0;
  for (uint32_t p = 0; p < radix1.fanout(); ++p) {
    max_pair = std::max(max_pair, r_layout1.PartitionSize(p) +
                                      s_layout1.PartitionSize(p));
  }
  auto staging = dev.allocator().AllocateGpu(
      std::max<uint64_t>(max_pair, 1) * sizeof(partition::Tuple));
  if (!staging.ok()) return staging.status();

  auto result = AllocateResult(dev, config_.result_mode, s.rows());
  if (!result.ok()) return result.status();

  uint64_t matches = 0, checksum = 0, result_cursor = 0;
  partition::SharedPartitioner gpu_partitioner;
  const uint32_t gpu_blocks = dev.hw().gpu.num_sms;

  for (uint32_t p = 0; p < radix1.fanout(); ++p) {
    uint64_t r_n = r_layout1.PartitionSize(p);
    uint64_t s_n = s_layout1.PartitionSize(p);
    if (r_n == 0 || s_n == 0) continue;

    // Transfer the working set to GPU memory (copy engines stream the
    // partition pair; functional compaction drops the alignment gaps).
    partition::Tuple* stage = staging->as<partition::Tuple>();
    dev.Launch({.name = "transfer"}, [&](exec::KernelContext& ctx) {
      uint64_t cursor = 0;
      auto copy_slices = [&](const mem::Buffer& src,
                             const partition::PartitionLayout& layout) {
        layout.ForEachSlice(p, [&](uint64_t begin, uint64_t count) {
          ctx.ReadSeq(src, begin * sizeof(partition::Tuple),
                      count * sizeof(partition::Tuple));
          std::memcpy(stage + cursor,
                      src.as<partition::Tuple>() + begin,
                      count * sizeof(partition::Tuple));
          cursor += count;
        });
      };
      copy_slices(*r_part, r_layout1);
      copy_slices(*s_part, s_layout1);
      ctx.WriteSeq(*staging, 0, cursor * sizeof(partition::Tuple));
      ctx.AddTuples(r_n + s_n);
    });

    partition::RowInput r_rows(&*staging, 0, r_n);
    partition::RowInput s_rows(&*staging, r_n, s_n);

    if (bits2 == 0) {
      // Partitions are already scratchpad-sized: join the staged pair
      // directly, as one block.
      util::Status st = JoinPairs(
          dev, /*sms=*/0, kScheme, /*pairs=*/1, bits1,
          [&](uint32_t) { return std::make_pair(r_rows, s_rows); },
          result->valid() ? &*result : nullptr, &result_cursor, &matches,
          &checksum);
      if (!st.ok()) return st;
      continue;
    }

    // --- GPU second pass (in GPU memory) ---
    partition::RadixConfig radix2{bits1, bits2};
    partition::PrefixSumOptions ps_opts;
    ps_opts.name = "prefix_sum2";
    partition::PartitionLayout r_layout2 =
        GpuPrefixSum(dev, r_rows, radix2, gpu_blocks, ps_opts);
    partition::PartitionLayout s_layout2 =
        GpuPrefixSum(dev, s_rows, radix2, gpu_blocks, ps_opts);
    auto r2 = dev.allocator().AllocateGpu(r_layout2.padded_tuples() *
                                          sizeof(partition::Tuple));
    if (!r2.ok()) return r2.status();
    auto s2 = dev.allocator().AllocateGpu(s_layout2.padded_tuples() *
                                          sizeof(partition::Tuple));
    if (!s2.ok()) return s2.status();
    partition::PartitionOptions popts;
    popts.name = "partition2";
    gpu_partitioner.PartitionRows(dev, r_rows, r_layout2, *r2, popts);
    gpu_partitioner.PartitionRows(dev, s_rows, s_layout2, *s2, popts);

    // --- Join the refined pairs ---
    util::Status st = JoinRefinedPairs(
        dev, /*sms=*/0, kScheme, *r2, r_layout2, *s2, s_layout2,
        result->valid() ? &*result : nullptr, &result_cursor, &matches,
        &checksum);
    if (!st.ok()) return st;
  }

  run.matches = matches;
  run.checksum = checksum;
  run.phases = dev.trace();
  for (const auto& ph : run.phases) run.totals.Merge(ph.counters);

  // Overlap model (Sections 3.1 / 6.2.4): R must be fully partitioned
  // before the GPU starts. The strategy overlaps the *transfer* of R's
  // working sets with the partitioning of S (the paper's description), but
  // the GPU-side second pass and join serialize behind the CPU — the CPU's
  // partitioning rate cannot keep the GPU busy, which is exactly the
  // paper's argument against this strategy.
  double t_part_r = run.PhaseTime("cpu_partition_r");
  double t_part_s = run.PhaseTime("cpu_partition_s");
  double t_transfer = run.PhaseTime("transfer");
  double t_gpu = run.PhaseTime("prefix_sum2") + run.PhaseTime("partition2") +
                 run.PhaseTime("join");
  run.elapsed = t_part_r + std::max(t_part_s, t_transfer) + t_gpu;
  return run;
}

}  // namespace triton::join
