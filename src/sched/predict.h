// Cost-model predictors anchoring the co-processing split decision.
//
// The scheduler needs modeled-seconds estimates for both backends *before*
// running anything. The predictors define no cost rule of their own: every
// rate and constant an engine also uses (partition::CpuPartitionRate,
// join::CpuJoinRate, partition::CpuScanBandwidth, partition::
// CpuDmaBandwidth, core::kSchedCyclesPerPair, join::ScratchJoinCosts) is
// called from the engine's definition. The CPU radix join's cost is a
// closed formula, so its prediction equals the engine's. The Triton join
// prediction rebuilds the per-phase roofline terms the sim::CostModel
// would produce from the kernels' counters — streamed link traffic with
// packet-header overhead, the interleaved cache split between GPU-resident
// and spilled state, issue-slot totals of the partition and join kernels —
// without executing them. Both predictors are pinned to the real engines
// by the calibration tests in tests/sched_test.cc.

#ifndef TRITON_SCHED_PREDICT_H_
#define TRITON_SCHED_PREDICT_H_

#include <algorithm>
#include <cstdint>

#include "join/common.h"
#include "sim/hw_spec.h"

namespace triton::sched {

/// Predicted modeled seconds for a full CPU-only radix join of
/// `r_tuples` x `s_tuples` on this machine: both relations partitioned at
/// partition::CpuPartitionRate, then joined at join::CpuJoinRate. Equals
/// join::CpuRadixJoin's modeled time (up to floating-point summation order).
double PredictCpuRadixSeconds(const sim::HwSpec& hw, uint64_t r_tuples,
                              uint64_t s_tuples,
                              join::HashScheme scheme =
                                  join::HashScheme::kBucketChaining);

/// Predicted phase split of a full GPU Triton join: the pass-1 barrier
/// (prefix sums + out-of-core partitioning) and the overlapped
/// refine+join pipeline that follows it.
struct TritonPrediction {
  /// Pass-1 barrier: CPU prefix sums + GPU partitioning of both relations.
  double front_seconds = 0.0;
  /// Overlapped second pass + join (the max of the bandwidth and compute
  /// lanes, Section 5.2).
  double pipeline_seconds = 0.0;
  /// Predicted fraction of partitioned state cached in GPU memory.
  double cached_fraction = 0.0;

  double TotalSeconds() const { return front_seconds + pipeline_seconds; }
};

/// Predicts the Triton join's modeled phase times on an otherwise-idle
/// device (full GPU memory available for state caching).
TritonPrediction PredictTritonPhases(const sim::HwSpec& hw, uint64_t r_tuples,
                                     uint64_t s_tuples);

/// Convenience: total predicted Triton join seconds.
double PredictTritonSeconds(const sim::HwSpec& hw, uint64_t r_tuples,
                            uint64_t s_tuples);

/// Modeled cost of joining one pass-1 partition pair on the CPU, in place:
/// pull the pair out of the interleaved pass-1 state (the GPU-cached
/// fraction crosses the link, the spilled fraction is already CPU-resident),
/// sub-partition it if the pair's hash table exceeds the per-core LLC share
/// at paper scale, then build + probe at the cache-resident rate.
struct CpuPairCost {
  double link_seconds = 0.0;     // GPU-resident fraction pulled over the link
  double read_seconds = 0.0;     // CPU-resident fraction scanned from DRAM
  double partition_seconds = 0.0;  // LLC-fitting sub-partition passes, if any
  double join_seconds = 0.0;     // build + probe
  /// Extra radix passes needed to make the pair's table LLC-resident.
  uint32_t extra_passes = 0;

  /// Serial pair time; the two input sources stream concurrently (DMA over
  /// the link overlaps the DRAM scan), the rest is sequential.
  double Seconds() const {
    return std::max(link_seconds, read_seconds) + partition_seconds +
           join_seconds;
  }
};

CpuPairCost PredictCpuPairCost(const sim::HwSpec& hw, uint64_t pair_r_tuples,
                               uint64_t pair_s_tuples, double cached_fraction,
                               join::HashScheme scheme);

}  // namespace triton::sched

#endif  // TRITON_SCHED_PREDICT_H_
