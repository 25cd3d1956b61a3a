#include "join/cpu_radix_join.h"

#include <algorithm>
#include <vector>

#include "hash/bucket_chain_table.h"
#include "partition/cpu_swwc.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/prefix_sum.h"
#include "util/bits.h"

namespace triton::join {

uint64_t CpuLlcPartitionTuples(const sim::CpuSpec& cpu) {
  return std::max<uint64_t>(cpu.llc_per_core / (2 * sizeof(partition::Tuple)),
                            1024);
}

uint32_t CpuRadixBits(const sim::CpuSpec& cpu, uint64_t r_tuples) {
  uint32_t bits =
      util::CeilLog2(util::CeilDiv(r_tuples, CpuLlcPartitionTuples(cpu)));
  return std::clamp(bits, 6u, 20u);
}

double CpuJoinRate(const sim::CpuSpec& cpu, HashScheme scheme) {
  double scheme_factor = scheme == HashScheme::kPerfect ? 1.12 : 1.0;
  return static_cast<double>(cpu.cores) * cpu.join_tuples_per_core *
         scheme_factor;
}

double PredictCpuRadixSeconds(const sim::HwSpec& hw, uint64_t r_tuples,
                              uint64_t s_tuples, HashScheme scheme) {
  const sim::CpuSpec& cpu = hw.cpu;
  const uint64_t paper_r = static_cast<uint64_t>(
      static_cast<double>(r_tuples) * hw.scale);
  const uint32_t bits = CpuRadixBits(cpu, paper_r);
  const uint32_t passes = partition::CpuPartitionPasses(cpu, bits);
  const double rate = partition::CpuPartitionRate(cpu, bits, passes);

  // Both relations stream through the partitioner `passes` times.
  const double in_bytes = static_cast<double>(r_tuples + s_tuples) *
                          sizeof(partition::Tuple);
  const double t_partition = in_bytes * passes / rate;
  const double t_join =
      static_cast<double>(r_tuples + s_tuples) / CpuJoinRate(cpu, scheme);
  return t_partition + t_join;
}

util::StatusOr<JoinRun> CpuRadixJoin::Run(exec::Device& dev,
                                          const data::Relation& r,
                                          const data::Relation& s) {
  const sim::CpuSpec& cpu = config_.cpu != nullptr ? *config_.cpu
                                                   : dev.hw().cpu;
  // Radix bits are derived at *paper scale*: capacity ratios involving the
  // unscaled CPU caches must see the unscaled workload size so the
  // single-/two-pass switch lands where the paper measures it.
  const uint64_t paper_r = static_cast<uint64_t>(
      static_cast<double>(r.rows()) * dev.hw().scale);
  const uint32_t bits = CpuRadixBits(cpu, paper_r);
  partition::RadixConfig radix{0, bits};
  const uint32_t num_blocks = cpu.cores;

  dev.ClearTrace();
  JoinRun run;

  // --- Partition both relations (prefix sum folded into the CPU
  // partitioner's measured rate) ---
  partition::ColumnInput r_in = partition::ColumnInput::Of(r);
  partition::ColumnInput s_in = partition::ColumnInput::Of(s);
  auto r_hist = partition::ComputeHistograms(r_in, radix, num_blocks);
  auto s_hist = partition::ComputeHistograms(s_in, radix, num_blocks);
  partition::PartitionLayout r_layout(radix, r_hist);
  partition::PartitionLayout s_layout(radix, s_hist);

  auto r_out = dev.allocator().AllocateCpu(r_layout.padded_tuples() *
                                           sizeof(partition::Tuple));
  if (!r_out.ok()) return r_out.status();
  auto s_out = dev.allocator().AllocateCpu(s_layout.padded_tuples() *
                                           sizeof(partition::Tuple));
  if (!s_out.ok()) return s_out.status();

  partition::CpuSwwcPartitioner partitioner(&cpu);
  partition::PartitionOptions opts;
  opts.name = "cpu_partition_r";
  partitioner.PartitionColumns(dev, r_in, r_layout, *r_out, opts);
  opts.name = "cpu_partition_s";
  partitioner.PartitionColumns(dev, s_in, s_layout, *s_out, opts);

  // --- Join partitions core-locally (functional) ---
  auto result = AllocateResult(dev, config_.result_mode, s.rows());
  if (!result.ok()) return result.status();
  partition::Tuple* out =
      result->valid() ? result->as<partition::Tuple>() : nullptr;
  const partition::Tuple* r_rows = r_out->as<partition::Tuple>();
  const partition::Tuple* s_rows = s_out->as<partition::Tuple>();

  uint64_t matches = 0;
  uint64_t checksum = 0;
  // Repeated build keys can make more matches than the |S|-row result
  // holds; the probe stops before writing past it.
  bool overflow = false;
  uint64_t max_partition = 0;
  for (uint32_t p = 0; p < radix.fanout(); ++p) {
    max_partition = std::max(max_partition, r_layout.PartitionSize(p));
  }
  constexpr uint32_t kBuckets = hash::BucketChainTable::kDefaultBuckets;
  std::vector<uint32_t> heads(kBuckets);
  std::vector<int64_t> keys(max_partition);
  std::vector<int64_t> values(max_partition);
  std::vector<uint32_t> next(max_partition);

  for (uint32_t p = 0; p < radix.fanout() && !overflow; ++p) {
    if (r_layout.PartitionSize(p) == 0) continue;
    std::fill(heads.begin(), heads.end(), 0u);
    hash::BucketChainTable table(
        heads.data(), kBuckets, keys.data(), values.data(), next.data(),
        static_cast<uint32_t>(std::max<uint64_t>(r_layout.PartitionSize(p),
                                                 1)));
    r_layout.ForEachSlice(p, [&](uint64_t begin, uint64_t count) {
      for (uint64_t i = begin; i < begin + count; ++i) {
        table.Insert(r_rows[i].key, r_rows[i].value, bits);
      }
    });
    s_layout.ForEachSlice(p, [&](uint64_t begin, uint64_t count) {
      for (uint64_t i = begin; i < begin + count; ++i) {
        table.Probe(s_rows[i].key, bits, [&](int64_t build_val) {
          if (out != nullptr) {
            if (matches == s.rows()) {
              overflow = true;
              return;
            }
            out[matches] = {build_val, s_rows[i].value};
          }
          ++matches;
          checksum += static_cast<uint64_t>(build_val) +
                      static_cast<uint64_t>(s_rows[i].value);
        });
      }
    });
  }

  if (overflow) {
    dev.allocator().Free(*r_out);
    dev.allocator().Free(*s_out);
    dev.allocator().Free(*result);
    return TooManyMatches("CPU radix join", s.rows());
  }

  // --- Analytic join-phase time ---
  exec::KernelRecord join_rec;
  join_rec.name = "cpu_join";
  join_rec.counters.tuples = r.rows() + s.rows();
  join_rec.counters.cpu_mem_read =
      (r.rows() + s.rows()) * sizeof(partition::Tuple);
  if (result->valid()) {
    join_rec.counters.cpu_mem_write = matches * sizeof(partition::Tuple);
  }
  join_rec.time.compute = static_cast<double>(r.rows() + s.rows()) /
                          CpuJoinRate(cpu, config_.scheme);
  dev.Record(join_rec);

  run.matches = matches;
  run.checksum = checksum;
  run.phases = dev.trace();
  for (const auto& ph : run.phases) run.totals.Merge(ph.counters);
  run.elapsed = dev.TraceElapsed();

  dev.allocator().Free(*r_out);
  dev.allocator().Free(*s_out);
  dev.allocator().Free(*result);
  return run;
}

}  // namespace triton::join
