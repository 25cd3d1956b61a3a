// Scratchpad-resident partition-pair join kernel.
//
// The final stage of every radix-partitioned GPU join (Triton's join phase,
// the CPU-partitioned join's GPU side): for one partition pair (R_p, S_p),
// build a bucket-chaining hash table over R_p in scratchpad memory
// (Section 6.1: 2048 bucket heads), probe it with S_p, and emit matches.
// If R_p exceeds the scratchpad capacity, the build side is processed in
// chunks and S_p is re-probed per chunk (graceful degradation instead of a
// failure; well-chosen radix bits avoid this).

#ifndef TRITON_JOIN_SCRATCH_JOIN_H_
#define TRITON_JOIN_SCRATCH_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/device.h"
#include "hash/bucket_chain_table.h"
#include "join/common.h"
#include "mem/buffer.h"
#include "partition/layout.h"
#include "util/status.h"

namespace triton::join {

/// SM-cycles per tuple for the scratchpad join (build / probe). The
/// perfect-hashing (array join) variant saves the chain walk; the paper
/// measures it within 0-2% of bucket chaining for partitioned joins.
struct ScratchJoinCosts {
  double build_cycles = 6.0;
  double probe_cycles = 5.0;
};

/// Per-pair join executor; reusable across partitions (table storage is
/// recycled).
class ScratchJoiner {
 public:
  /// `scheme` selects cost constants; the functional path is identical.
  ScratchJoiner(HashScheme scheme, uint64_t scratchpad_bytes);

  /// Joins two contiguous tuple ranges (offsets/counts in tuples) of one
  /// buffer: used when first-pass partitions are already scratchpad-sized.
  util::Status JoinRange(exec::KernelContext& ctx, const mem::Buffer& rows,
                         uint64_t r_offset, uint64_t r_count,
                         uint64_t s_offset, uint64_t s_count,
                         uint32_t radix_shift, mem::Buffer* result,
                         uint64_t* result_cursor, uint64_t* matches,
                         uint64_t* checksum);

  /// Core: joins slice lists (tuple offset, count) over two row buffers.
  /// Materialized matches are stored from `*result_cursor` on; a match that
  /// would land past the end of `result` is not stored and the join returns
  /// ResourceExhausted (repeated build keys can make more matches than the
  /// result holds).
  util::Status JoinSlices(
      exec::KernelContext& ctx, const mem::Buffer& r_rows,
      const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
      const mem::Buffer& s_rows,
      const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
      uint32_t radix_shift, mem::Buffer* result, uint64_t* result_cursor,
      uint64_t* matches, uint64_t* checksum);

  /// Emit-callback core JoinSlices is built on: same chunked build/probe
  /// accounting (partition reads, build/probe cycles, tuple counts), but
  /// every match is handed to `emit(build_value, probe_value)` instead of
  /// being written to a result buffer. Parallel callers stage matches per
  /// partition and materialize them in partition order afterwards, so
  /// result writes stay deterministic across thread counts.
  template <typename Emit>
  void JoinSlicesEmit(
      exec::KernelContext& ctx, const mem::Buffer& r_rows,
      const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
      const mem::Buffer& s_rows,
      const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
      uint32_t radix_shift, Emit&& emit);

  /// Maximum build tuples the scratchpad table holds alongside the bucket
  /// heads.
  uint32_t MaxBuildTuples() const { return max_build_tuples_; }

  HashScheme scheme() const { return scheme_; }
  const ScratchJoinCosts& costs() const { return costs_; }

 private:
  static constexpr uint32_t kBuckets =
      hash::BucketChainTable::kDefaultBuckets;

  HashScheme scheme_;
  ScratchJoinCosts costs_;
  uint32_t max_build_tuples_;
  // Recycled table storage.
  std::vector<uint32_t> heads_;
  std::vector<int64_t> keys_;
  std::vector<int64_t> values_;
  std::vector<uint32_t> next_;
};

template <typename Emit>
void ScratchJoiner::JoinSlicesEmit(
    exec::KernelContext& ctx, const mem::Buffer& r_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
    const mem::Buffer& s_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
    uint32_t radix_shift, Emit&& emit) {
  const partition::Tuple* r_data = r_rows.as<partition::Tuple>();
  const partition::Tuple* s_data = s_rows.as<partition::Tuple>();

  uint64_t r_total = 0, s_total = 0;
  for (const auto& slice : r_slices) r_total += slice.second;
  for (const auto& slice : s_slices) s_total += slice.second;
  if (r_total == 0 || s_total == 0) return;

  size_t slice_idx = 0;
  uint64_t slice_pos = 0;
  while (slice_idx < r_slices.size()) {
    // --- Build chunk ---
    std::fill(heads_.begin(), heads_.end(), 0u);
    hash::BucketChainTable table(heads_.data(), kBuckets, keys_.data(),
                                 values_.data(), next_.data(),
                                 max_build_tuples_);
    uint64_t built = 0;
    while (slice_idx < r_slices.size() && built < max_build_tuples_) {
      auto [begin, count] = r_slices[slice_idx];
      uint64_t take =
          std::min<uint64_t>(count - slice_pos, max_build_tuples_ - built);
      ctx.ReadSeq(r_rows, (begin + slice_pos) * sizeof(partition::Tuple),
                  take * sizeof(partition::Tuple));
      for (uint64_t i = 0; i < take; ++i) {
        const partition::Tuple& t = r_data[begin + slice_pos + i];
        table.Insert(t.key, t.value, radix_shift);
      }
      built += take;
      slice_pos += take;
      if (slice_pos == count) {
        ++slice_idx;
        slice_pos = 0;
      }
    }
    ctx.Charge(static_cast<uint64_t>(built * costs_.build_cycles));

    // --- Probe chunk: stream all of S against this build chunk ---
    for (const auto& [begin, count] : s_slices) {
      ctx.ReadSeq(s_rows, begin * sizeof(partition::Tuple),
                  count * sizeof(partition::Tuple));
      for (uint64_t i = begin; i < begin + count; ++i) {
        const partition::Tuple& t = s_data[i];
        table.Probe(t.key, radix_shift, [&](int64_t build_val) {
          emit(build_val, t.value);
        });
      }
    }
    ctx.Charge(static_cast<uint64_t>(s_total * costs_.probe_cycles));
    ctx.AddTuples(built + s_total);
  }
}

/// The refined-pair `join` kernel of a two-pass GPU join, launched on
/// `sms` SMs: one thread block per refined pair q of the layouts builds a
/// scratchpad table over R_q and probes it with S_q. Matches add to
/// `matches`/`checksum`. When `result` is non-null each block stages its
/// matches; once every block has joined, block q's offset from
/// `*result_cursor` is the sum of the matches of the blocks before it,
/// and a second set of blocks stores each block's matches at its offset.
/// Results and accounting are therefore independent of the host thread
/// count. Returns ResourceExhausted, before storing anything, when the
/// matches would run past the end of `result`.
util::Status JoinRefinedPairs(exec::Device& dev, uint32_t sms,
                              HashScheme scheme, const mem::Buffer& r_rows,
                              const partition::PartitionLayout& r_layout,
                              const mem::Buffer& s_rows,
                              const partition::PartitionLayout& s_layout,
                              mem::Buffer* result, uint64_t* result_cursor,
                              uint64_t* matches, uint64_t* checksum);

}  // namespace triton::join

#endif  // TRITON_JOIN_SCRATCH_JOIN_H_
