// The Triton join pipeline, shared by every operator that runs on it.
//
// The paper's Triton join (Section 5) is one pipeline in two steps:
//
//   front      prefix sums over the base relations (CPU or GPU), then the
//              out-of-core pass-1 partitioning. As much partitioned state
//              as the pipeline reservation leaves room for is cached in
//              GPU memory; the rest spills to CPU memory through the
//              Section 5.3 interleaved page mapping.
//   pair body  per pass-1 pair: the second-pass prefix sum (which doubles
//              as the pair's copy-in to a GPU staging slot when state
//              spilled), the Shared second pass into GPU memory, the join
//              task scheduler and the scratchpad join of the refined pairs.
//
// Each step is defined here once. Operators compose the steps and keep
// only their policies: core::TritonJoin runs the front and then the pair
// body for every pair, timed as max(sum bw, sum compute) (Section 5.2);
// sched::CoProcessScheduler runs the same front and the pair body for its
// GPU morsels, timed by its bounded staging pipeline; core::TritonAggregate
// runs the front over one relation and aggregates each partition itself.

#ifndef TRITON_CORE_TRITON_PIPELINE_H_
#define TRITON_CORE_TRITON_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "mem/buffer.h"
#include "partition/layout.h"
#include "partition/partitioner.h"
#include "partition/radix.h"
#include "sim/cost_model.h"
#include "sim/hw_spec.h"
#include "util/status.h"

namespace triton::core {

/// Pass-1 bits, at least `bits1`, at which a pass-1 pair of `tuples`
/// input tuples (R_i + S_i) and its refined copy fit half the GPU memory
/// alongside a double-buffered sibling: the pair body's GPU budget.
uint32_t PairBudgetBits(const sim::HwSpec& hw, uint64_t tuples,
                        uint32_t bits1);

/// Parameters of the front.
struct FrontOptions {
  /// SMs of the front's kernels; also the prefix sums' block count.
  uint32_t sms = 0;
  /// Prefix sums on the GPU instead of the CPU (Figure 20).
  bool gpu_prefix_sum = false;
  /// Pass-1 partitioner; null = Hierarchical.
  partition::GpuPartitioner* pass1 = nullptr;
  /// GPU-memory budget for caching partitioned state (Figure 19's knob).
  uint64_t cache_bytes = UINT64_MAX;
  /// Pipeline working memory held back from the cache, in largest pass-1
  /// pairs; at least an eighth of GPU memory is always held back.
  uint64_t reserve_pairs = 4;
};

/// One relation after pass 1: its layout and the partitioned tuples, the
/// cached fraction in GPU memory and the rest interleaved in CPU memory.
struct Partitioned {
  partition::PartitionLayout layout;
  mem::Buffer state;
};

/// Output of the front.
struct Front {
  /// One entry per input relation, in order (R, then S for a join).
  std::vector<Partitioned> rels;
  /// Tuples of the largest pass-1 pair, summed over the relations.
  uint64_t max_pair = 0;
  /// Fraction of the partitioned state cached in GPU memory.
  double cached_fraction = 0.0;
  /// Bytes of partitioned state spilled to CPU memory.
  uint64_t spilled_bytes = 0;
};

/// Runs the front over one relation or two (R, S) with the pass-1 radix
/// config `radix1`. Kernels land in the device trace as prefix_sum1, then
/// partition1 for one relation or partition1_r and partition1_s for two.
util::StatusOr<Front> RunFront(exec::Device& dev, partition::RadixConfig radix1,
                               const std::vector<const data::Relation*>& rels,
                               const FrontOptions& opts);

/// Allocates GPU staging for the pair body: `slots` slots of the largest
/// pass-1 pair when state spilled; an empty buffer when nothing spilled
/// (pairs are then read in place).
util::StatusOr<mem::Buffer> AllocateStaging(exec::Device& dev,
                                            const Front& front,
                                            uint32_t slots);

/// Modeled seconds of pipeline kernels on the two concurrent lanes of
/// Section 5.2.
struct Lanes {
  double bw = 0.0;      // interconnect / TLB / CPU-memory lane
  double comp = 0.0;    // GPU compute / on-board memory lane
  double serial = 0.0;  // plain sum of kernel times (no overlap)

  /// Adds one kernel's times to each lane.
  void Add(const sim::KernelTime& t);
};

/// Matches of the pairs joined so far.
struct JoinTotals {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  uint64_t result_cursor = 0;  // next free entry of the result buffer
};

/// Parameters of the pair body, fixed for one run.
struct PairBody {
  partition::RadixConfig radix2;  // the pass-1 config's Next
  /// SMs of every pair kernel; also the prefix sum's block count.
  uint32_t sms = 0;
  join::HashScheme scheme = join::HashScheme::kBucketChaining;
  mem::Buffer* staging = nullptr;  // null: read pass-1 state in place
  mem::Buffer* result = nullptr;   // null: aggregate matches only
};

/// Refines and joins pass-1 pair `p` of a two-relation front: kernels
/// prefix_sum2 (x2), partition2 (x2), sched and join. A spilled pair is
/// staged at tuple `stage_offset` of the staging buffer. Matches add to
/// `totals`; each kernel's lane times add to `lanes` one kernel at a time.
/// Pairs with an empty side launch nothing.
util::Status JoinPair(exec::Device& dev, const Front& front, uint32_t p,
                      const PairBody& body, uint64_t stage_offset,
                      JoinTotals* totals, Lanes* lanes);

}  // namespace triton::core

#endif  // TRITON_CORE_TRITON_PIPELINE_H_
