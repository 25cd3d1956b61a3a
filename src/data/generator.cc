#include "data/generator.h"

#include <cmath>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace triton::data {

namespace {

/// Content cache for the most recently generated workload. Benches rebuild
/// the identical workload once per series at every sweep point, and the
/// fill loops — a Fisher–Yates shuffle plus per-tuple RNG draws over
/// hundreds of MiB — dominate host time for small kernels.
/// A hit replays the exact bytes the fills would have produced into the
/// freshly allocated buffers, so relation contents (and every modeled
/// quantity derived from them) are bit-identical. Bounded so paper-scale
/// workloads never pin gigabytes of host memory.
struct WorkloadCache {
  std::mutex mu;
  bool valid = false;
  WorkloadConfig config;
  std::vector<Key> r_keys, s_keys;
  std::vector<std::vector<Value>> r_payloads, s_payloads;
};

WorkloadCache& Cache() {
  static WorkloadCache* cache = new WorkloadCache;
  return *cache;
}

constexpr uint64_t kMaxCachedWorkloadBytes = 512ull << 20;

bool SameConfig(const WorkloadConfig& a, const WorkloadConfig& b) {
  return a.r_tuples == b.r_tuples && a.s_tuples == b.s_tuples &&
         a.payload_cols == b.payload_cols && a.seed == b.seed &&
         a.zipf_theta == b.zipf_theta;
}

void CopyInto(Relation& rel, const std::vector<Key>& keys,
              const std::vector<std::vector<Value>>& payloads) {
  std::memcpy(rel.keys(), keys.data(), keys.size() * sizeof(Key));
  for (uint32_t c = 0; c < rel.payload_cols(); ++c) {
    std::memcpy(rel.payload(c), payloads[c].data(),
                payloads[c].size() * sizeof(Value));
  }
}

void CopyOut(const Relation& rel, std::vector<Key>& keys,
             std::vector<std::vector<Value>>& payloads) {
  keys.assign(rel.keys(), rel.keys() + rel.rows());
  payloads.resize(rel.payload_cols());
  for (uint32_t c = 0; c < rel.payload_cols(); ++c) {
    payloads[c].assign(rel.payload(c), rel.payload(c) + rel.rows());
  }
}

}  // namespace

void FillPrimaryKeys(Relation& rel, uint64_t seed) {
  Key* keys = rel.keys();
  const uint64_t n = rel.rows();
  for (uint64_t i = 0; i < n; ++i) keys[i] = static_cast<Key>(i + 1);
  util::Rng rng(seed ^ 0xfeedbeefULL);
  for (uint64_t i = n; i > 1; --i) {
    uint64_t j = rng.NextBounded(i);
    std::swap(keys[i - 1], keys[j]);
  }
}

void FillForeignKeys(Relation& rel, uint64_t fk_domain, uint64_t seed) {
  CHECK_GT(fk_domain, 0u);
  Key* keys = rel.keys();
  const uint64_t n = rel.rows();
  util::Rng rng(seed ^ 0xabcdef12ULL);
  for (uint64_t i = 0; i < n; ++i) {
    keys[i] = static_cast<Key>(rng.NextBounded(fk_domain) + 1);
  }
}

void FillPayloads(Relation& rel, uint64_t seed) {
  for (uint32_t c = 0; c < rel.payload_cols(); ++c) {
    Value* col = rel.payload(c);
    uint64_t state = seed + 0x1234567ULL * (c + 1);
    for (uint64_t i = 0; i < rel.rows(); ++i) {
      col[i] = static_cast<Value>(util::SplitMix64(state));
    }
  }
}

util::Status CheckZipfTheta(double theta) {
  if (std::isfinite(theta) && theta >= 0.0) return util::Status::OK();
  return util::Status::InvalidArgument(
      "zipf_theta must be finite and >= 0, got " + std::to_string(theta));
}

void FillForeignKeysZipf(Relation& rel, uint64_t fk_domain, double theta,
                         uint64_t seed) {
  CHECK_GT(fk_domain, 0u);
  CHECK_OK(CheckZipfTheta(theta));
  if (theta <= 0.0) {
    FillForeignKeys(rel, fk_domain, seed);
    return;
  }
  Key* keys = rel.keys();
  util::Rng rng(seed ^ 0x5a5a5a5aULL);
  const double n = static_cast<double>(fk_domain);
  if (std::abs(theta - 1.0) < 1e-9) theta = 1.0 + 1e-6;
  // Approximate inverse CDF of the Zipf distribution via the generalized
  // harmonic number H_theta(k) ~ (k^(1-theta) - 1) / (1 - theta).
  const double one_minus = 1.0 - theta;
  const double h_n = (std::pow(n, one_minus) - 1.0) / one_minus;
  for (uint64_t i = 0; i < rel.rows(); ++i) {
    double u = rng.NextDouble();
    double k = std::pow(u * h_n * one_minus + 1.0, 1.0 / one_minus);
    uint64_t key = static_cast<uint64_t>(k);
    if (key < 1) key = 1;
    if (key > fk_domain) key = fk_domain;
    keys[i] = static_cast<Key>(key);
  }
  // The Zipf ranks correlate with key *values* (key 1 is hottest), but the
  // primary keys of R are already randomly shuffled across R, so hot keys
  // land at random build-side positions — no extra decorrelation needed.
}

util::StatusOr<Workload> GenerateWorkload(mem::Allocator& alloc,
                                          const WorkloadConfig& config) {
  if (config.r_tuples == 0 || config.s_tuples == 0) {
    return util::Status::InvalidArgument("relation cardinality must be > 0");
  }
  TRITON_RETURN_IF_ERROR(CheckZipfTheta(config.zipf_theta));
  Workload wl;
  auto r = Relation::AllocateCpu(alloc, config.r_tuples, config.payload_cols);
  if (!r.ok()) return r.status();
  wl.r = std::move(r).value();
  auto s = Relation::AllocateCpu(alloc, config.s_tuples, config.payload_cols);
  if (!s.ok()) return s.status();
  wl.s = std::move(s).value();

  const uint64_t workload_bytes =
      (config.r_tuples + config.s_tuples) *
      (sizeof(Key) + config.payload_cols * sizeof(Value));
  const bool cacheable = workload_bytes <= kMaxCachedWorkloadBytes;
  bool hit = false;
  if (cacheable) {
    WorkloadCache& cache = Cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    if (cache.valid && SameConfig(cache.config, config)) {
      CopyInto(wl.r, cache.r_keys, cache.r_payloads);
      CopyInto(wl.s, cache.s_keys, cache.s_payloads);
      hit = true;
    }
  }
  if (!hit) {
    FillPrimaryKeys(wl.r, config.seed);
    if (config.zipf_theta > 0.0) {
      FillForeignKeysZipf(wl.s, config.r_tuples, config.zipf_theta,
                          config.seed + 1);
    } else {
      FillForeignKeys(wl.s, config.r_tuples, config.seed + 1);
    }
    FillPayloads(wl.r, config.seed + 2);
    FillPayloads(wl.s, config.seed + 3);
    if (cacheable) {
      WorkloadCache& cache = Cache();
      std::lock_guard<std::mutex> lock(cache.mu);
      cache.config = config;
      CopyOut(wl.r, cache.r_keys, cache.r_payloads);
      CopyOut(wl.s, cache.s_keys, cache.s_payloads);
      cache.valid = true;
    }
  }

  // Primary-key/foreign-key join: every S tuple matches exactly one R tuple.
  wl.expected_join_cardinality = config.s_tuples;
  return wl;
}

uint64_t ReferenceJoinCardinality(const Relation& r, const Relation& s) {
  std::unordered_map<Key, uint64_t> counts;
  counts.reserve(r.rows() * 2);
  for (uint64_t i = 0; i < r.rows(); ++i) ++counts[r.keys()[i]];
  uint64_t total = 0;
  for (uint64_t j = 0; j < s.rows(); ++j) {
    auto it = counts.find(s.keys()[j]);
    if (it != counts.end()) total += it->second;
  }
  return total;
}

}  // namespace triton::data
