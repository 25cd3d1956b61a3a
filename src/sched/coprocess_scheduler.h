// Heterogeneous CPU+GPU co-processing scheduler.
//
// Splits one join across both processors at partition-pair granularity.
// The GPU runs the Triton join's own front (core::RunFront in
// core/triton_pipeline.h: CPU prefix sums, then the out-of-core pass-1
// partitioning of both relations with interleaved GPU-memory caching), so
// the build side crosses the interconnect exactly once regardless of the
// split. Each pass-1 pair (R_i, S_i) is then a morsel dispatched to one of
// the two backends:
//
//   GPU pair   Triton's pair body (core::JoinPair), with the interconnect
//              stage modeled as a *bounded staging queue*: at most
//              kStagingDepth pairs may be resident in the GPU-side
//              staging buffer, so the copy-in of pair k+D stalls until the
//              compute of pair k drains its slot — the paper's software
//              pipeline with finite buffering.
//   CPU pair   joined in place by the CPU: the spilled fraction of the
//              pair is already CPU-resident (free ride of the spill!), the
//              GPU-cached fraction streams back over the link concurrently
//              with the DRAM scan; the pair is sub-partitioned to
//              LLC-resident chunks if needed and joined with a
//              bucket-chaining table at the calibrated per-core rate.
//
// The initial CPU share equalizes the two backends' tuple rates. The GPU
// rate is observed, not modeled twice: pair 0, which every derived split
// runs on the GPU, is joined right after the front, and its lanes are its
// exact modeled cost. The CPU rate is the average pair's cost under the
// rule each CPU pair is charged by. The adaptive mode rebalances the share
// between morsel waves from the observed per-morsel modeled seconds.
// Everything — results, PerfCounters, the adaptive trajectory — is
// bit-identical at any --threads: pairs are assigned in pair-index order,
// all block-parallel work reduces in block/pair order, and the adaptive
// feedback consumes only deterministic modeled times plus a seeded dither.
//
// Modeled elapsed time composes as
//     T = T_front + max(sum of CPU pair seconds, GPU bounded pipeline)
// i.e. the two backends run concurrently after the shared pass-1 barrier.
// As with core::TritonJoin, run.elapsed is the scheduler's own phase
// composition, not the sum of trace-record times.

#ifndef TRITON_SCHED_COPROCESS_SCHEDULER_H_
#define TRITON_SCHED_COPROCESS_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "util/status.h"

namespace triton::sched {

/// Configuration of the co-processing scheduler.
struct CoProcessConfig {
  join::ResultMode result_mode = join::ResultMode::kMaterialize;
  /// CPU share of the pair tuples, in [0, 1]. Negative = derive the initial
  /// share from pair 0's GPU rate and the average pair's CPU cost.
  double split_ratio = -1.0;
  /// Rebalance the share between morsel waves from observed per-morsel
  /// modeled seconds (seeded-deterministic feedback).
  bool adaptive = false;
  /// Seed of the adaptive dither (keeps rebalancing reproducible).
  uint64_t seed = 0x5eedc0de;
};

/// Per-wave adaptive trajectory entry.
struct CoProcessWave {
  uint32_t pairs = 0;
  uint32_t cpu_pairs = 0;
  /// CPU share targeted when this wave was assigned.
  double target_cpu_fraction = 0.0;
  /// Modeled seconds both sides spent on this wave's morsels.
  double cpu_seconds = 0.0;
  double gpu_seconds = 0.0;
};

/// Introspection reported by benches alongside the JoinRun.
struct CoProcessStats {
  uint32_t bits1 = 0;
  uint32_t bits2 = 0;
  double cached_fraction = 0.0;
  uint64_t spilled_bytes = 0;
  uint32_t pairs_total = 0;
  uint32_t cpu_pairs = 0;
  uint32_t gpu_pairs = 0;
  /// CPU share the scheduler started from: split_ratio, or when derived
  /// cpu_rate / (cpu_rate + gpu_rate) clamped to [0, 0.9], with gpu_rate
  /// pair 0's tuples over max(bw, comp) of its lanes and cpu_rate the
  /// average pair's tuples over its CPU cost.
  double initial_cpu_fraction = 0.0;
  /// Realized CPU share of the pair tuples.
  double final_cpu_fraction = 0.0;
  /// Modeled seconds per phase of the composition.
  double front_seconds = 0.0;
  double cpu_seconds = 0.0;
  double gpu_pipeline_seconds = 0.0;
  /// Full-join estimates of each backend alone. CPU: the CPU radix join's
  /// closed form (join::PredictCpuRadixSeconds). GPU: the front's seconds
  /// plus the pair tuples at pair 0's rate; a derived split only, 0 when
  /// split_ratio is set.
  double predicted_cpu_seconds = 0.0;
  double predicted_gpu_seconds = 0.0;
  /// Adaptive trajectory (one entry per wave; single entry when static).
  std::vector<CoProcessWave> waves;
};

/// Modeled completion time of the bounded software pipeline: pair k's
/// bandwidth stage (link/TLB/CPU-memory lane) must finish before its
/// compute stage starts, stages of each kind run in order, and the
/// bandwidth stage of pair k may only start once pair k - depth has
/// drained its staging slot. Exposed for the scheduler tests.
double BoundedPipelineSeconds(const std::vector<double>& bw_stage,
                              const std::vector<double>& compute_stage,
                              uint32_t depth);

/// The co-processing scheduler; see file comment.
class CoProcessScheduler {
 public:
  /// Minimum pass-1 bits: at least 32 pairs so the split has granularity.
  static constexpr uint32_t kMinPairBits = 5;
  /// Bounded staging-queue depth: GPU staging slots a pair's copy-in may
  /// occupy ahead of its compute.
  static constexpr uint32_t kStagingDepth = 2;

  explicit CoProcessScheduler(CoProcessConfig config = {})
      : config_(config) {}

  /// Joins r (build side) with s (probe side) across both backends.
  util::StatusOr<join::JoinRun> Run(exec::Device& dev,
                                    const data::Relation& r,
                                    const data::Relation& s);

  const CoProcessConfig& config() const { return config_; }
  const CoProcessStats& stats() const { return stats_; }

  /// Derives the radix bits: same total depth as the Triton join (refined
  /// partitions of ~1024 tuples) but with pass-1 taking at least
  /// kMinPairBits of it, so a join always decomposes into enough morsels
  /// to split. Pass 1 then grows to core::PairBudgetBits, as in TritonJoin.
  static void DeriveBits(const sim::HwSpec& hw, uint64_t r_tuples,
                         uint64_t s_tuples, uint32_t* bits1, uint32_t* bits2);

 private:
  CoProcessConfig config_;
  CoProcessStats stats_;
};

}  // namespace triton::sched

#endif  // TRITON_SCHED_COPROCESS_SCHEDULER_H_
