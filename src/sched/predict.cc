#include "sched/predict.h"

#include <algorithm>

#include "core/triton_join.h"
#include "core/triton_pipeline.h"
#include "join/cpu_radix_join.h"
#include "join/scratch_join.h"
#include "partition/cpu_swwc.h"
#include "partition/input.h"
#include "partition/partitioner.h"
#include "partition/prefix_sum.h"
#include "util/bits.h"

namespace triton::sched {

namespace {

/// Link-read physical bytes for `payload` streamed by SM loads: 128-byte
/// transactions each carrying a 16-byte header.
double LinkReadPhysical(const sim::HwSpec& hw, double payload) {
  return payload *
         static_cast<double>(hw.link.max_sm_payload + hw.link.header_bytes) /
         static_cast<double>(hw.link.max_sm_payload);
}

/// Link-write physical bytes for `payload` flushed in DMA-sized runs:
/// 256-byte transactions each carrying a 16-byte header.
double LinkWritePhysical(const sim::HwSpec& hw, double payload) {
  return payload *
         static_cast<double>(hw.link.max_dma_payload + hw.link.header_bytes) /
         static_cast<double>(hw.link.max_dma_payload);
}

}  // namespace

double PredictCpuRadixSeconds(const sim::HwSpec& hw, uint64_t r_tuples,
                              uint64_t s_tuples, join::HashScheme scheme) {
  const sim::CpuSpec& cpu = hw.cpu;
  const uint64_t paper_r = static_cast<uint64_t>(
      static_cast<double>(r_tuples) * hw.scale);
  const uint32_t bits = join::CpuRadixBits(cpu, paper_r);
  const uint32_t passes = partition::CpuPartitionPasses(cpu, bits);
  const double rate = partition::CpuPartitionRate(cpu, bits, passes);

  // Both relations stream through the partitioner `passes` times.
  const double in_bytes = static_cast<double>(r_tuples + s_tuples) *
                          sizeof(partition::Tuple);
  const double t_partition = in_bytes * passes / rate;
  const double t_join =
      static_cast<double>(r_tuples + s_tuples) / join::CpuJoinRate(cpu, scheme);
  return t_partition + t_join;
}

TritonPrediction PredictTritonPhases(const sim::HwSpec& hw, uint64_t r_tuples,
                                     uint64_t s_tuples) {
  TritonPrediction pred;
  const double n = static_cast<double>(r_tuples + s_tuples);
  const double in_bytes = n * sizeof(partition::Tuple);
  const double issue = hw.GpuIssueRate(hw.gpu.num_sms);

  uint32_t bits1 = 0, bits2 = 0;
  core::TritonJoin::DeriveBits(hw, r_tuples, s_tuples, &bits1, &bits2);
  const uint32_t fanout1 = 1u << bits1;
  const uint32_t fanout2 = 1u << bits2;

  // --- Prefix sums: CPU key-column scans (one per relation) ---
  for (uint64_t rel : {r_tuples, s_tuples}) {
    const uint64_t key_bytes = rel * sizeof(data::Key);
    pred.front_seconds += static_cast<double>(key_bytes) /
                          partition::CpuScanBandwidth(hw, key_bytes);
  }

  // --- Cache split: mirror the join's pipeline reservation on an idle
  // device (full GPU memory available) ---
  const double max_pair = in_bytes / fanout1;
  const double reserve =
      std::max(4.0 * max_pair,
               static_cast<double>(hw.gpu_mem.capacity) / 8.0);
  const double gpu_free = static_cast<double>(hw.gpu_mem.capacity);
  const double cache_avail = gpu_free > reserve ? gpu_free - reserve : 0.0;
  const double cached = std::min(cache_avail, in_bytes);
  const double spilled = in_bytes - cached;
  pred.cached_fraction = in_bytes > 0.0 ? cached / in_bytes : 0.0;

  // --- Pass 1: GPU pulls both base relations over the link, scatters the
  // cached fraction to GPU memory (via the hierarchical L2 staging) and
  // spills the rest back over the link in DMA-sized flushes ---
  {
    const double read_phys = LinkReadPhysical(hw, in_bytes);
    const double write_phys = LinkWritePhysical(hw, spilled);
    double link_bw = hw.link.raw_bandwidth_per_dir;
    if (write_phys > (read_phys + write_phys) / 16.0 && write_phys > 0.0) {
      link_bw *= hw.link.bidirectional_efficiency;
    }
    const double t_link = std::max(read_phys, write_phys) / link_bw;
    const double t_compute = n * partition::kPartitionCyclesPerTuple / issue;
    // Every tuple is staged through L2 buffers in GPU memory (write + read
    // back) before its final placement; the cached fraction lands there too.
    const double t_gpu_mem = (2.0 * in_bytes + cached) / hw.gpu_mem.bandwidth;
    const double t_cpu_mem = (in_bytes + spilled) / hw.cpu_mem.bandwidth;
    pred.front_seconds +=
        std::max({t_link, t_compute, t_gpu_mem, t_cpu_mem});
  }

  // --- Pipeline: the second-pass prefix sum re-reads the pair (spilled
  // fraction over the link: the bandwidth lane), while refine + join are
  // GPU-local (the compute lane). Lanes overlap; elapsed is their max ---
  const bool staged = spilled > 0.0;
  const double bw_lane =
      std::max(LinkReadPhysical(hw, spilled) / hw.link.raw_bandwidth_per_dir,
               spilled / hw.cpu_mem.bandwidth);

  double comp_lane = 0.0;
  // prefix_sum2: histogram pass + (when spilled) the staging copy-in.
  comp_lane += std::max(
      n * partition::kPrefixSumCyclesPerTuple / issue,
      (cached + (staged ? in_bytes : 0.0)) / hw.gpu_mem.bandwidth);
  // partition2: read the (staged) pair, scatter to the refined buffers.
  comp_lane += std::max(n * partition::kPartitionCyclesPerTuple / issue,
                        2.0 * in_bytes / hw.gpu_mem.bandwidth);
  // sched: task-scheduler cost per refined pair, for every pass-1 pair.
  comp_lane += core::kSchedCyclesPerPair * fanout2 * fanout1 / issue;
  // join: build + probe over the refined pairs.
  const join::ScratchJoinCosts join_costs;
  comp_lane += std::max((join_costs.build_cycles * r_tuples +
                         join_costs.probe_cycles * s_tuples) /
                            issue,
                        in_bytes / hw.gpu_mem.bandwidth);

  pred.pipeline_seconds = std::max(bw_lane, comp_lane);
  return pred;
}

double PredictTritonSeconds(const sim::HwSpec& hw, uint64_t r_tuples,
                            uint64_t s_tuples) {
  return PredictTritonPhases(hw, r_tuples, s_tuples).TotalSeconds();
}

CpuPairCost PredictCpuPairCost(const sim::HwSpec& hw, uint64_t pair_r_tuples,
                               uint64_t pair_s_tuples, double cached_fraction,
                               join::HashScheme scheme) {
  CpuPairCost cost;
  const sim::CpuSpec& cpu = hw.cpu;
  const double pair_bytes =
      static_cast<double>(pair_r_tuples + pair_s_tuples) *
      sizeof(partition::Tuple);

  // The pass-1 state is interleaved: the GPU-cached fraction streams to the
  // CPU over the link (DMA plateau, as for CPU-to-GPU transfers), the
  // spilled fraction is already CPU-resident and scans at memory bandwidth.
  const double gpu_resident = pair_bytes * cached_fraction;
  const double cpu_resident = pair_bytes - gpu_resident;
  cost.link_seconds = gpu_resident / partition::CpuDmaBandwidth(hw);
  cost.read_seconds = cpu_resident / cpu.scan_bw;

  // Sub-partition the pair until its hash table is LLC-resident, judged at
  // paper scale like join::CpuRadixBits.
  const uint64_t paper_pair_r = static_cast<uint64_t>(
      static_cast<double>(pair_r_tuples) * hw.scale);
  const uint64_t target_tuples = std::max<uint64_t>(
      cpu.llc_per_core / (2 * sizeof(partition::Tuple)), 1024);
  if (paper_pair_r > target_tuples) {
    const uint32_t extra_bits = util::CeilLog2(
        util::CeilDiv(paper_pair_r, target_tuples));
    cost.extra_passes = partition::CpuPartitionPasses(cpu, extra_bits);
    cost.partition_seconds =
        pair_bytes * cost.extra_passes /
        partition::CpuPartitionRate(cpu, extra_bits, cost.extra_passes);
  }

  cost.join_seconds =
      static_cast<double>(pair_r_tuples + pair_s_tuples) /
      join::CpuJoinRate(cpu, scheme);
  return cost;
}

}  // namespace triton::sched
