// GPU no-partitioning hash join (the baseline of Figures 1, 13, 14, 19, 21).
//
// Builds one global hash table over R and probes it with S. The table is
// placed in GPU memory as long as it fits (optionally only a cached
// fraction, Figure 19); anything beyond the GPU capacity spills to CPU
// memory, where every probe becomes a random 16-byte access over the
// interconnect — and, once the table exceeds the GPU TLB reach, nearly
// every access also costs an IOMMU translation. That is the paper's
// performance cliff: with linear probing the 50% load factor doubles the
// table size, blowing the TLB range and collapsing throughput by 400x
// versus perfect hashing (Section 6.2.2).
//
// Execution: both phases run as thread blocks over contiguous input
// chunks, in waves. The probe uses KernelContext::ForEachBlock: blocks run
// in any order, stage their matches, and are appended in block order. The
// build uses ForEachBlockInOrder, because insertion order decides the
// linear-probing layout and the chain order. Either way the launching
// thread replays each finished block's TLB accesses in input order while
// later blocks run, so every counter equals a serial run's.
//
// Input contract: probe keys may take any value. Build keys must be
// unique and lie in 1..|R| for kPerfect, and be unique and nonzero for
// kLinearProbing (key 0 marks an empty slot); a violation is refused with
// InvalidArgument naming the first offending row. kBucketChaining accepts
// any build keys, but a materialized result is limited to |S| rows: more
// matches than that (repeated build keys) are refused with
// ResourceExhausted.

#ifndef TRITON_JOIN_NO_PARTITIONING_JOIN_H_
#define TRITON_JOIN_NO_PARTITIONING_JOIN_H_

#include <cstdint>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "util/status.h"

namespace triton::join {

/// SM-cycles per build / probe tuple, calibrated to the paper's in-core
/// rates (Figure 21's dissection: probe 4.3 G tuples/s, build 1.8 G
/// tuples/s on 80 SMs); random accesses dominate out-of-core runs
/// regardless. serve::SharedBuild charges the same perfect-table lookups.
inline constexpr double kBuildCyclesPerTuple = 68.0;
inline constexpr double kProbeCyclesPerTuple = 28.0;

/// Configuration of the no-partitioning join.
struct NoPartitioningJoinConfig {
  HashScheme scheme = HashScheme::kPerfect;
  ResultMode result_mode = ResultMode::kMaterialize;
  /// GPU-memory bytes granted to the hash table (the Figure 19 cache-size
  /// knob). UINT64_MAX places as much of the table in GPU memory as fits.
  uint64_t cache_bytes = UINT64_MAX;
};

/// Size in bytes of the global hash table for `r_tuples` build tuples.
uint64_t NpjTableBytes(HashScheme scheme, uint64_t r_tuples);

/// No-partitioning hash join; see file comment.
class NoPartitioningJoin {
 public:
  explicit NoPartitioningJoin(NoPartitioningJoinConfig config = {})
      : config_(config) {}

  /// Joins r (build) with s (probe). Returns match count, checksum and
  /// simulated timing, or refuses input outside the contract in the file
  /// comment.
  util::StatusOr<JoinRun> Run(exec::Device& dev, const data::Relation& r,
                              const data::Relation& s);

  const NoPartitioningJoinConfig& config() const { return config_; }

 private:
  NoPartitioningJoinConfig config_;
};

}  // namespace triton::join

#endif  // TRITON_JOIN_NO_PARTITIONING_JOIN_H_
