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

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/device.h"
#include "join/common.h"
#include "mem/buffer.h"
#include "partition/layout.h"

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
  void JoinRange(exec::KernelContext& ctx, const mem::Buffer& rows,
                 uint64_t r_offset, uint64_t r_count, uint64_t s_offset,
                 uint64_t s_count, uint32_t radix_shift, mem::Buffer* result,
                 uint64_t* result_cursor, uint64_t* matches,
                 uint64_t* checksum);

  /// Core: joins slice lists (tuple offset, count) over two row buffers.
  void JoinSlices(exec::KernelContext& ctx, const mem::Buffer& r_rows,
                  const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
                  const mem::Buffer& s_rows,
                  const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
                  uint32_t radix_shift, mem::Buffer* result,
                  uint64_t* result_cursor, uint64_t* matches,
                  uint64_t* checksum);

  /// Emit-callback core JoinSlices is built on: same chunked build/probe
  /// accounting (partition reads, build/probe cycles, tuple counts), but
  /// every match is handed to `emit(build_value, probe_value)` instead of
  /// being written to a result buffer. Parallel callers stage matches per
  /// partition and materialize them in partition order afterwards, so
  /// result writes stay deterministic across thread counts.
  void JoinSlicesEmit(
      exec::KernelContext& ctx, const mem::Buffer& r_rows,
      const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
      const mem::Buffer& s_rows,
      const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
      uint32_t radix_shift,
      const std::function<void(int64_t, int64_t)>& emit);

  /// Maximum build tuples the scratchpad table holds alongside the bucket
  /// heads.
  uint32_t MaxBuildTuples() const { return max_build_tuples_; }

  const ScratchJoinCosts& costs() const { return costs_; }

 private:
  HashScheme scheme_;
  ScratchJoinCosts costs_;
  uint32_t max_build_tuples_;
  // Recycled table storage.
  std::vector<uint32_t> heads_;
  std::vector<int64_t> keys_;
  std::vector<int64_t> values_;
  std::vector<uint32_t> next_;
};

/// The refined-pair `join` kernel of a two-pass GPU join, launched on
/// `sms` SMs: one thread block per refined pair q of the layouts builds a
/// scratchpad table over R_q and probes it with S_q. Matches add to
/// `matches`/`checksum`; when `result` is non-null they are staged per
/// block and written at `*result_cursor` in pair order, so results and
/// accounting are independent of the host thread count.
void JoinRefinedPairs(exec::Device& dev, uint32_t sms, HashScheme scheme,
                      const mem::Buffer& r_rows,
                      const partition::PartitionLayout& r_layout,
                      const mem::Buffer& s_rows,
                      const partition::PartitionLayout& s_layout,
                      mem::Buffer* result, uint64_t* result_cursor,
                      uint64_t* matches, uint64_t* checksum);

}  // namespace triton::join

#endif  // TRITON_JOIN_SCRATCH_JOIN_H_
