// Shared definitions for all join algorithms.

#ifndef TRITON_JOIN_COMMON_H_
#define TRITON_JOIN_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "sim/perf_counters.h"
#include "util/status.h"

namespace triton::join {

/// Hash-table scheme (Section 6.1: perfect hashing / array join for dense
/// primary keys, linear probing at 50% load, bucket chaining with 2048
/// buckets for the partitioned joins).
enum class HashScheme { kPerfect, kLinearProbing, kBucketChaining };

const char* HashSchemeName(HashScheme scheme);

/// How join matches are emitted.
enum class ResultMode {
  /// Matches are materialized as <build-payload, probe-payload> pairs into
  /// a CPU-memory result buffer (the paper's general case: results can
  /// exceed GPU memory).
  kMaterialize,
  /// Matches are aggregated into a per-thread checksum folded with an
  /// atomic add (the paper's alternative; no result transfers).
  kAggregate,
};

/// Allocates the result buffer for up to `rows` matches when `mode`
/// materializes them: <build-payload, probe-payload> pairs in CPU memory,
/// since results may exceed GPU memory (Section 5.1). Returns an empty
/// buffer when matches are only aggregated.
util::StatusOr<mem::Buffer> AllocateResult(exec::Device& dev, ResultMode mode,
                                           uint64_t rows);

/// The refusal of a materialized join whose matches would run past its
/// `rows`-row result buffer (|S| rows; repeated build keys can make more
/// matches than that). `join` names the operator or kernel.
util::Status TooManyMatches(const std::string& join, uint64_t rows);

/// Outcome of one join execution.
struct JoinRun {
  /// Number of matches found (PK/FK workloads: exactly |S|).
  uint64_t matches = 0;
  /// Checksum over all matched pairs (sum of build+probe payloads); lets
  /// tests validate contents without materializing.
  uint64_t checksum = 0;
  /// Simulated end-to-end time in seconds (pipelining/overlap applied).
  double elapsed = 0.0;
  /// Per-phase kernel records, in execution order.
  std::vector<exec::KernelRecord> phases;
  /// Merged counters over all phases.
  sim::PerfCounters totals;

  /// The paper's throughput metric: (|R| + |S|) / runtime.
  double Throughput(uint64_t r_tuples, uint64_t s_tuples) const {
    return elapsed > 0.0
               ? static_cast<double>(r_tuples + s_tuples) / elapsed
               : 0.0;
  }

  /// Sums the elapsed times of phases whose name contains `substr`.
  double PhaseTime(const std::string& substr) const;
};

/// Reference checksum for validation: sum over all matching (r, s) pairs of
/// (r.payload + s.payload). Brute force; use on small inputs only.
uint64_t ReferenceChecksum(const data::Relation& r, const data::Relation& s);

}  // namespace triton::join

#endif  // TRITON_JOIN_COMMON_H_
