// Multi-core CPU radix-partitioned hash join baseline (Section 6.1,
// following Balkesen et al. / Barthels et al., ported to POWER9 by the
// paper; Figure 13's "CPU Radix Join" series).
//
// Both relations are radix-partitioned with software write-combining so
// that each partition's hash table fits into the per-core LLC share; the
// partitions are then joined core-locally. The simulated time uses the
// analytic multi-core model of partition/cpu_swwc.h plus a per-core join
// rate; the join itself runs functionally so results are exact. A CpuSpec
// selects the processor (POWER9 default, Xeon Gold 6126 preset for the
// second baseline), which drives the single- vs two-pass partitioning
// switch the paper observes on the Xeon.

#ifndef TRITON_JOIN_CPU_RADIX_JOIN_H_
#define TRITON_JOIN_CPU_RADIX_JOIN_H_

#include <cstdint>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "sim/hw_spec.h"
#include "util/status.h"

namespace triton::join {

/// Configuration of the CPU radix join.
struct CpuRadixJoinConfig {
  /// kBucketChaining or kPerfect (the array-join / perfect-hashing variant,
  /// 6-16% faster in the paper).
  HashScheme scheme = HashScheme::kBucketChaining;
  ResultMode result_mode = ResultMode::kMaterialize;
  /// Radix bits; 0 = derive from |R| and the LLC (the paper's 12-14 bits).
  uint32_t bits = 0;
  /// Processor model; null = the device's host CPU (POWER9).
  const sim::CpuSpec* cpu = nullptr;
};

/// Radix bits the CPU join needs so each partition's table fits the LLC.
uint32_t CpuRadixBits(const sim::CpuSpec& cpu, uint64_t r_tuples);

/// Chip-wide join rate (tuples/s) over cache-resident partitions: every
/// core at its calibrated rate; perfect hashing is 12% faster.
double CpuJoinRate(const sim::CpuSpec& cpu, HashScheme scheme);

/// CPU radix-partitioned hash join; see file comment.
class CpuRadixJoin {
 public:
  explicit CpuRadixJoin(CpuRadixJoinConfig config = {}) : config_(config) {}

  util::StatusOr<JoinRun> Run(exec::Device& dev, const data::Relation& r,
                              const data::Relation& s);

  const CpuRadixJoinConfig& config() const { return config_; }

 private:
  CpuRadixJoinConfig config_;
};

}  // namespace triton::join

#endif  // TRITON_JOIN_CPU_RADIX_JOIN_H_
