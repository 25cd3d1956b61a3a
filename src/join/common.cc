#include "join/common.h"

#include <unordered_map>

#include "hash/entry.h"

namespace triton::join {

const char* HashSchemeName(HashScheme scheme) {
  switch (scheme) {
    case HashScheme::kPerfect:
      return "Perfect";
    case HashScheme::kLinearProbing:
      return "LinearProbing";
    case HashScheme::kBucketChaining:
      return "BucketChaining";
  }
  return "Unknown";
}

util::StatusOr<mem::Buffer> AllocateResult(exec::Device& dev, ResultMode mode,
                                           uint64_t rows) {
  if (mode != ResultMode::kMaterialize) return mem::Buffer();
  return dev.allocator().AllocateCpu(rows * sizeof(hash::Entry));
}

util::Status TooManyMatches(const std::string& join, uint64_t rows) {
  return util::Status::ResourceExhausted(
      join + ": more than |S| = " + std::to_string(rows) +
      " matches to materialize; repeated build keys need "
      "ResultMode::kAggregate");
}

double JoinRun::PhaseTime(const std::string& substr) const {
  double total = 0.0;
  for (const auto& p : phases) {
    if (p.name.find(substr) != std::string::npos) total += p.Elapsed();
  }
  return total;
}

uint64_t ReferenceChecksum(const data::Relation& r, const data::Relation& s) {
  std::unordered_multimap<data::Key, data::Value> index;
  index.reserve(r.rows() * 2);
  for (uint64_t i = 0; i < r.rows(); ++i) {
    index.emplace(r.keys()[i], r.payload(0)[i]);
  }
  uint64_t checksum = 0;
  for (uint64_t j = 0; j < s.rows(); ++j) {
    auto [lo, hi] = index.equal_range(s.keys()[j]);
    for (auto it = lo; it != hi; ++it) {
      checksum += static_cast<uint64_t>(it->second) +
                  static_cast<uint64_t>(s.payload(0)[j]);
    }
  }
  return checksum;
}

}  // namespace triton::join
