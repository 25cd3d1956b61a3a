// Scratchpad-resident partition-pair join kernel.
//
// The final stage of every radix-partitioned GPU join (Triton's join phase,
// the CPU-partitioned join's GPU side): for one partition pair (R_p, S_p),
// build a bucket-chaining hash table over R_p in scratchpad memory
// (Section 6.1: 2048 bucket heads), probe it with S_p, and emit matches.
// If R_p exceeds the scratchpad capacity, the build side is processed in
// chunks and S_p is re-probed per chunk (graceful degradation instead of a
// failure; well-chosen radix bits avoid this). Both sides are
// partition::RowInput views, so one kernel joins a refined pair's slices
// and a pair staged contiguously alike; JoinPairs runs it as the `join`
// kernel, one thread block per pair.

#ifndef TRITON_JOIN_SCRATCH_JOIN_H_
#define TRITON_JOIN_SCRATCH_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "exec/device.h"
#include "hash/bucket_chain_table.h"
#include "join/common.h"
#include "mem/buffer.h"
#include "partition/input.h"
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

  /// Joins the pair (r, s): builds the scratchpad table over r, a chunk of
  /// MaxBuildTuples() tuples at a time, and streams all of s against each
  /// chunk, accounting the partition reads, build/probe cycles and tuple
  /// counts on `ctx`. Every match is handed to `emit(build_value,
  /// probe_value)`; parallel callers stage matches per pair and
  /// materialize them in pair order afterwards, so result writes stay
  /// deterministic across thread counts.
  template <typename Emit>
  void JoinSlicesEmit(exec::KernelContext& ctx, const partition::RowInput& r,
                      const partition::RowInput& s, uint32_t radix_shift,
                      Emit&& emit);

  /// Maximum build tuples the scratchpad table holds alongside the bucket
  /// heads.
  uint32_t MaxBuildTuples() const { return max_build_tuples_; }

  HashScheme scheme() const { return scheme_; }

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
void ScratchJoiner::JoinSlicesEmit(exec::KernelContext& ctx,
                                   const partition::RowInput& r,
                                   const partition::RowInput& s,
                                   uint32_t radix_shift, Emit&& emit) {
  const uint64_t r_total = r.size();
  const uint64_t s_total = s.size();
  if (r_total == 0 || s_total == 0) return;

  for (uint64_t chunk = 0; chunk < r_total; chunk += max_build_tuples_) {
    const uint64_t built =
        std::min<uint64_t>(r_total - chunk, max_build_tuples_);
    // --- Build chunk ---
    std::fill(heads_.begin(), heads_.end(), 0u);
    hash::BucketChainTable table(heads_.data(), kBuckets, keys_.data(),
                                 values_.data(), next_.data(),
                                 max_build_tuples_);
    r.AccountRead(ctx, chunk, chunk + built);
    r.ForEachRun(chunk, built, [&](const partition::Tuple* src, uint64_t,
                                   uint64_t count) {
      for (uint64_t i = 0; i < count; ++i) {
        table.Insert(src[i].key, src[i].value, radix_shift);
      }
    });
    ctx.Charge(static_cast<uint64_t>(built * costs_.build_cycles));

    // --- Probe chunk: stream all of S against this build chunk ---
    s.AccountRead(ctx, 0, s_total);
    s.ForEachRun(0, s_total, [&](const partition::Tuple* src, uint64_t,
                                 uint64_t count) {
      for (uint64_t i = 0; i < count; ++i) {
        table.Probe(src[i].key, radix_shift, [&](int64_t build_val) {
          emit(build_val, src[i].value);
        });
      }
    });
    ctx.Charge(static_cast<uint64_t>(s_total * costs_.probe_cycles));
    ctx.AddTuples(built + s_total);
  }
}

/// The `join` kernel of a partitioned GPU join, launched on `sms` SMs: one
/// thread block per pair q in [0, pairs) builds a scratchpad table over
/// R_q and probes it with S_q, where (R_q, S_q) = pair_of(q) is built
/// inside the block; `radix_shift` counts the hash bits the partitioning
/// consumed. Matches add to `matches`/`checksum`. When `result` is non-null
/// each block stages its matches; once every block has joined, block q's
/// offset from `*result_cursor` is the sum of the matches of the blocks
/// before it, and a second set of blocks stores each block's matches at
/// its offset. Results and accounting are therefore independent of the
/// host thread count. Returns ResourceExhausted, before storing anything,
/// when the matches would run past the end of `result`.
util::Status JoinPairs(
    exec::Device& dev, uint32_t sms, HashScheme scheme, uint32_t pairs,
    uint32_t radix_shift,
    const std::function<std::pair<partition::RowInput, partition::RowInput>(
        uint32_t)>& pair_of,
    mem::Buffer* result, uint64_t* result_cursor, uint64_t* matches,
    uint64_t* checksum);

/// JoinPairs over the refined pairs of a two-pass GPU join: pair q is
/// partition q of (r_rows, r_layout) and of (s_rows, s_layout).
util::Status JoinRefinedPairs(exec::Device& dev, uint32_t sms,
                              HashScheme scheme, const mem::Buffer& r_rows,
                              const partition::PartitionLayout& r_layout,
                              const mem::Buffer& s_rows,
                              const partition::PartitionLayout& s_layout,
                              mem::Buffer* result, uint64_t* result_cursor,
                              uint64_t* matches, uint64_t* checksum);

}  // namespace triton::join

#endif  // TRITON_JOIN_SCRATCH_JOIN_H_
