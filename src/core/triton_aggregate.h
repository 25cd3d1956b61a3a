// Out-of-core GPU group-by aggregation on the Triton substrate.
//
// The paper motivates its technique for "join and group-by aggregation
// queries with an in-GPU state" (Section 1) and notes that radix
// partitioning applies to group-based aggregation and duplicate
// elimination just like to joins (Section 2.2). TritonAggregate is that
// operator: the same GPU-partitioned strategy — Hierarchical first pass
// over the interconnect with interleaved caching, Shared second pass into
// GPU memory — followed by a scratchpad hash aggregation per partition
// instead of a build/probe. Grouped results stream back to CPU memory.
//
// Supported aggregates: SUM(value) and COUNT(*) per key; the group count
// is the DISTINCT key count (duplicate elimination).

#ifndef TRITON_CORE_TRITON_AGGREGATE_H_
#define TRITON_CORE_TRITON_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "sim/perf_counters.h"
#include "util/status.h"

namespace triton::core {

/// Configuration of the aggregation operator.
struct TritonAggregateConfig {
  /// GPU cache budget for partitioned state (as in the Triton join).
  uint64_t cache_bytes = UINT64_MAX;
};

/// Result of one aggregation run.
struct AggregateRun {
  /// Number of distinct groups found.
  uint64_t groups = 0;
  /// Checksum over all (key, sum) pairs for validation.
  uint64_t checksum = 0;
  /// Simulated end-to-end seconds.
  double elapsed = 0.0;
  /// Merged counters over all phases.
  sim::PerfCounters totals;
  /// Per-phase kernel records.
  std::vector<exec::KernelRecord> phases;

  double Throughput(uint64_t tuples) const {
    return elapsed > 0.0 ? static_cast<double>(tuples) / elapsed : 0.0;
  }
};

/// SUM/COUNT GROUP BY key over one relation.
class TritonAggregate {
 public:
  explicit TritonAggregate(TritonAggregateConfig config = {})
      : config_(config) {}

  /// Aggregates relation `r`: groups by r.keys(), sums r.payload(0).
  util::StatusOr<AggregateRun> Run(exec::Device& dev,
                                   const data::Relation& r);

  const TritonAggregateConfig& config() const { return config_; }

 private:
  TritonAggregateConfig config_;
};

/// Brute-force reference: (group count, checksum) for validation.
std::pair<uint64_t, uint64_t> ReferenceAggregate(const data::Relation& r);

}  // namespace triton::core

#endif  // TRITON_CORE_TRITON_AGGREGATE_H_
