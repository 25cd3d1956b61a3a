// The Triton join — the paper's primary contribution (Section 5).
//
// A hierarchical hybrid hash join (3H+) implementing the GPU-partitioned
// strategy of Section 3.3:
//
//   1st pass   The GPU radix-partitions R and S by the low B1 bits of the
//              hashed key using the Hierarchical partitioner, *pulling*
//              base data from CPU memory over the fast interconnect. The
//              partitioned output is cached in GPU memory up to the cache
//              budget; the remainder spills to CPU memory through the
//              Section 5.3 interleaved page mapping, which spreads GPU
//              pages evenly through the array so the interconnect stays
//              busy during the later passes.
//   2nd pass   Each partition pair is refined by the next B2 hash bits
//              with the Shared partitioner, reading (possibly spilled)
//              pass-1 data and writing to GPU memory.
//   join       Each refined pair is joined with a scratchpad-resident
//              bucket-chaining hash table; results are materialized to CPU
//              memory (they may exceed GPU capacity) or aggregated.
//
// The 2nd pass and the join run as concurrent kernels on half the SMs each
// (Section 5.2), so the pass-2 transfer of pair i+1 overlaps the join of
// pair i. With a zero cache budget the algorithm degenerates to a plain
// two-pass out-of-core radix join (the Figure 19 baseline).

#ifndef TRITON_CORE_TRITON_JOIN_H_
#define TRITON_CORE_TRITON_JOIN_H_

#include <cstdint>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "partition/partitioner.h"
#include "util/status.h"

namespace triton::core {

/// Configuration of the Triton join.
struct TritonJoinConfig {
  /// Scratchpad hash scheme: kBucketChaining (default) or kPerfect; the
  /// paper measures them within 0-2% for partitioned joins.
  join::HashScheme scheme = join::HashScheme::kBucketChaining;
  join::ResultMode result_mode = join::ResultMode::kMaterialize;
  /// Prefix sums on the CPU (default; 1.1x faster end-to-end, Figure 20)
  /// or on the GPU.
  bool gpu_prefix_sum = false;
  /// GPU-memory budget for caching partitioned state (Figure 19's knob).
  /// UINT64_MAX = everything that fits after pipeline reservations;
  /// 0 = no cache (degenerates to a two-pass radix join).
  uint64_t cache_bytes = UINT64_MAX;
  /// Overlap the 2nd partitioning pass with the join via concurrent
  /// kernels on half the SMs each (Section 5.2).
  bool overlap = true;
  /// First-pass partitioning algorithm; null = Hierarchical (Figure 17
  /// swaps in Standard/Linear/Shared here).
  partition::GpuPartitioner* pass1 = nullptr;
  /// SMs available to the join (Figure 24 scales this; 0 = all). More
  /// than the GPU has is refused with InvalidArgument.
  uint32_t sms = 0;
};

/// Extra introspection the benches report alongside the JoinRun.
struct TritonJoinStats {
  uint32_t bits1 = 0;
  uint32_t bits2 = 0;
  /// Fraction of the partitioned intermediate state held in GPU memory.
  double cached_fraction = 0.0;
  /// Bytes of intermediate state spilled to CPU memory.
  uint64_t spilled_bytes = 0;
};

/// The Triton join; see file comment.
class TritonJoin {
 public:
  explicit TritonJoin(TritonJoinConfig config = {}) : config_(config) {}

  /// Joins r (build side) with s (probe side).
  util::StatusOr<join::JoinRun> Run(exec::Device& dev,
                                    const data::Relation& r,
                                    const data::Relation& s);

  const TritonJoinConfig& config() const { return config_; }
  const TritonJoinStats& stats() const { return stats_; }

  /// Derives the radix bits for a workload: bits2 targets scratchpad-sized
  /// final partitions with a 512-way second pass; bits1 covers the rest
  /// and additionally ensures a partition *pair* (R_i + S_i) fits the
  /// GPU-memory pipeline budget even for skewed build:probe ratios.
  static void DeriveBits(const sim::HwSpec& hw, uint64_t r_tuples,
                         uint64_t s_tuples, uint32_t* bits1, uint32_t* bits2);

 private:
  TritonJoinConfig config_;
  TritonJoinStats stats_;
};

}  // namespace triton::core

#endif  // TRITON_CORE_TRITON_JOIN_H_
