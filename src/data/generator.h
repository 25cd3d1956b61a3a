// Workload generation following the paper's Section 6.1.
//
// The default workload consists of two relations R (build side, primary
// keys) and S (probe side, foreign keys). Primary keys are a random shuffle
// of 1..|R|; foreign keys are drawn uniformly from [1, |R|]; record-ids are
// random values. All relations are column-oriented in pageable CPU memory.

#ifndef TRITON_DATA_GENERATOR_H_
#define TRITON_DATA_GENERATOR_H_

#include <cstdint>

#include "data/relation.h"
#include "mem/allocator.h"
#include "util/status.h"

namespace triton::data {

/// Parameters for one R/S workload instance.
struct WorkloadConfig {
  /// Build-side cardinality (R holds primary keys).
  uint64_t r_tuples = 0;
  /// Probe-side cardinality (S references R's keys).
  uint64_t s_tuples = 0;
  /// Payload attributes per relation (1 = the default 16-byte tuple).
  uint32_t payload_cols = 1;
  /// RNG seed; distinct runs in a bench vary this.
  uint64_t seed = 42;
  /// Zipf skew of the foreign keys (0 = the paper's uniform default).
  double zipf_theta = 0.0;
};

/// A generated workload: both relations plus ground truth for validation.
struct Workload {
  Relation r;
  Relation s;
  /// The exact number of output tuples an equi-join R |><| S produces.
  /// For PK/FK workloads every S tuple matches exactly once, so this is
  /// |S|; kept explicit so skewed/variant generators stay checkable.
  uint64_t expected_join_cardinality = 0;
};

/// Generates R with shuffled primary keys 1..r_tuples and S with uniform
/// (or, for zipf_theta > 0, Zipf-distributed) foreign keys into R. Refuses
/// an empty side and a zipf_theta that CheckZipfTheta refuses.
util::StatusOr<Workload> GenerateWorkload(mem::Allocator& alloc,
                                          const WorkloadConfig& config);

/// OK for a finite, non-negative Zipf skew; InvalidArgument otherwise (a
/// NaN or negative theta would otherwise run uniform keys, +inf would send
/// every key to 1).
util::Status CheckZipfTheta(double theta);

/// Fills an already-allocated relation with shuffled primary keys 1..rows.
void FillPrimaryKeys(Relation& rel, uint64_t seed);

/// Fills an already-allocated relation with uniform foreign keys in
/// [1, fk_domain].
void FillForeignKeys(Relation& rel, uint64_t fk_domain, uint64_t seed);

/// Fills an already-allocated relation with Zipf-distributed foreign keys
/// in [1, fk_domain] with skew parameter `theta` (0 = uniform; ~1 = heavy
/// skew; CHECK-fails on a theta CheckZipfTheta refuses). Uses the standard
/// approximate inverse-CDF sampler (Gray et al.).
/// Skewed probe sides are an extension beyond the paper's uniform default;
/// the Triton join handles them via chunked scratchpad builds.
void FillForeignKeysZipf(Relation& rel, uint64_t fk_domain, double theta,
                         uint64_t seed);

/// Fills every payload column of `rel` with pseudo-random values.
void FillPayloads(Relation& rel, uint64_t seed);

/// Reference join cardinality computed by brute force over small inputs
/// (tests use this to validate generators and joins).
uint64_t ReferenceJoinCardinality(const Relation& r, const Relation& s);

}  // namespace triton::data

#endif  // TRITON_DATA_GENERATOR_H_
