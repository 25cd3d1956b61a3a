#include "join/scratch_join.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace triton::join {

namespace {

/// The calling thread's joiner for (scheme, scratchpad_bytes). Each worker
/// thread runs its blocks one after another, so one joiner per thread is
/// reused across blocks and launches instead of allocating and zero-filling
/// a scratchpad's worth of table storage per block. Reuse is invisible to
/// the result: JoinSlicesEmit clears the bucket heads for every build chunk
/// and writes each entry before reading it.
ScratchJoiner& ThreadJoiner(HashScheme scheme, uint64_t scratchpad_bytes) {
  thread_local std::optional<ScratchJoiner> joiner;
  thread_local uint64_t joiner_bytes = 0;
  if (!joiner.has_value() || joiner->scheme() != scheme ||
      joiner_bytes != scratchpad_bytes) {
    joiner.emplace(scheme, scratchpad_bytes);
    joiner_bytes = scratchpad_bytes;
  }
  return *joiner;
}

}  // namespace

ScratchJoiner::ScratchJoiner(HashScheme scheme, uint64_t scratchpad_bytes)
    : scheme_(scheme) {
  if (scheme_ == HashScheme::kPerfect) {
    // Array join: no chain pointers to follow.
    costs_.build_cycles = 5.0;
    costs_.probe_cycles = 4.0;
  }
  // Table storage per build tuple: key + value + next link; the bucket
  // heads take 4 bytes each.
  uint64_t head_bytes = kBuckets * sizeof(uint32_t);
  uint64_t per_tuple = 2 * sizeof(int64_t) + sizeof(uint32_t);
  uint64_t cap = scratchpad_bytes > head_bytes
                     ? (scratchpad_bytes - head_bytes) / per_tuple
                     : 256;
  max_build_tuples_ = static_cast<uint32_t>(std::max<uint64_t>(cap, 256));
  heads_.assign(kBuckets, 0);
  keys_.resize(max_build_tuples_);
  values_.resize(max_build_tuples_);
  next_.resize(max_build_tuples_);
}

util::Status ScratchJoiner::JoinSlices(
    exec::KernelContext& ctx, const mem::Buffer& r_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
    const mem::Buffer& s_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
    uint32_t radix_shift, mem::Buffer* result, uint64_t* result_cursor,
    uint64_t* matches, uint64_t* checksum) {
  const uint64_t first_row = *result_cursor;
  const uint64_t capacity =
      result != nullptr ? result->size() / sizeof(partition::Tuple) : 0;
  bool overflow = false;
  // Matches are staged in a chunk, and each full chunk is stored in one
  // bulk write at the result cursor, unless it would run past the result.
  constexpr uint64_t kChunkTuples = 4096;
  std::vector<partition::Tuple> chunk;
  if (result != nullptr) chunk.reserve(kChunkTuples);
  auto drain_chunk = [&] {
    if (chunk.empty() || overflow) return;
    if (chunk.size() > capacity - *result_cursor) {
      overflow = true;
      return;
    }
    ctx.StoreRun(*result, *result_cursor, chunk.data(), chunk.size());
    *result_cursor += chunk.size();
    chunk.clear();
  };
  JoinSlicesEmit(ctx, r_rows, r_slices, s_rows, s_slices, radix_shift,
                 [&](int64_t build_val, int64_t probe_val) {
                   if (result != nullptr && !overflow) {
                     chunk.push_back(partition::Tuple{build_val, probe_val});
                     if (chunk.size() == kChunkTuples) drain_chunk();
                   }
                   ++*matches;
                   *checksum += static_cast<uint64_t>(build_val) +
                                static_cast<uint64_t>(probe_val);
                 });
  drain_chunk();

  // Materialized matches stream out through coalesced linear-allocator
  // writes.
  const uint64_t stored = *result_cursor - first_row;
  if (stored > 0) {
    ctx.WriteSeq(*result, first_row * sizeof(partition::Tuple),
                 stored * sizeof(partition::Tuple));
  }
  if (overflow) return TooManyMatches("scratchpad join", capacity);
  return util::Status::OK();
}

util::Status ScratchJoiner::JoinRange(exec::KernelContext& ctx,
                                      const mem::Buffer& rows,
                                      uint64_t r_offset, uint64_t r_count,
                                      uint64_t s_offset, uint64_t s_count,
                                      uint32_t radix_shift,
                                      mem::Buffer* result,
                                      uint64_t* result_cursor,
                                      uint64_t* matches, uint64_t* checksum) {
  return JoinSlices(ctx, rows, {{r_offset, r_count}}, rows,
                    {{s_offset, s_count}}, radix_shift, result,
                    result_cursor, matches, checksum);
}

util::Status JoinRefinedPairs(exec::Device& dev, uint32_t sms,
                              HashScheme scheme, const mem::Buffer& r_rows,
                              const partition::PartitionLayout& r_layout,
                              const mem::Buffer& s_rows,
                              const partition::PartitionLayout& s_layout,
                              mem::Buffer* result, uint64_t* result_cursor,
                              uint64_t* matches, uint64_t* checksum) {
  const partition::RadixConfig radix = r_layout.radix();
  const uint32_t fanout = radix.fanout();
  const uint64_t scratchpad_bytes = dev.hw().gpu.scratchpad_bytes;
  util::Status status;
  dev.Launch({.name = "join", .sms = sms}, [&](exec::KernelContext& ctx) {
    struct BlockOut {
      std::vector<partition::Tuple> pairs;
      uint64_t matches = 0;
      uint64_t checksum = 0;
      uint64_t offset = 0;  // result row of the block's first match
    };
    std::vector<BlockOut> outs(fanout);
    ctx.ForEachBlock(fanout, [&](exec::KernelContext& sub, uint32_t q) {
      sub.SetSanitizerBlock(q);
      std::vector<std::pair<uint64_t, uint64_t>> r_sl, s_sl;
      r_layout.ForEachSlice(
          q, [&](uint64_t b, uint64_t c) { r_sl.emplace_back(b, c); });
      s_layout.ForEachSlice(
          q, [&](uint64_t b, uint64_t c) { s_sl.emplace_back(b, c); });
      BlockOut& out = outs[q];
      if (result != nullptr) out.pairs.reserve(s_layout.PartitionSize(q));
      ThreadJoiner(scheme, scratchpad_bytes)
          .JoinSlicesEmit(sub, r_rows, r_sl, s_rows, s_sl,
                          radix.shift + radix.bits,
                          [&](int64_t build_val, int64_t probe_val) {
                            if (result != nullptr) {
                              out.pairs.push_back(
                                  partition::Tuple{build_val, probe_val});
                            }
                            ++out.matches;
                            out.checksum += static_cast<uint64_t>(build_val) +
                                            static_cast<uint64_t>(probe_val);
                          });
    });

    uint64_t rows = *result_cursor;
    for (BlockOut& out : outs) {
      *matches += out.matches;
      *checksum += out.checksum;
      out.offset = rows;
      rows += out.pairs.size();
    }
    if (rows == *result_cursor) return;
    const uint64_t capacity = result->size() / sizeof(partition::Tuple);
    if (rows > capacity) {
      status = TooManyMatches("scratchpad join", capacity);
      return;
    }
    // Copy-out: block q stores its matches at its offset. The per-range
    // TLB entries of the writes replay in block order, the sequence one
    // loop over the blocks would issue.
    ctx.ForEachBlock(fanout, [&](exec::KernelContext& sub, uint32_t q) {
      const BlockOut& out = outs[q];
      if (out.pairs.empty()) return;
      sub.SetSanitizerBlock(q);
      sub.StoreRun(*result, out.offset, out.pairs.data(), out.pairs.size());
      sub.WriteSeq(*result, out.offset * sizeof(partition::Tuple),
                   out.pairs.size() * sizeof(partition::Tuple));
    });
    *result_cursor = rows;
  });
  return status;
}

}  // namespace triton::join
