#include "join/scratch_join.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "exec/block_executor.h"
#include "util/bits.h"

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

util::Status JoinPairs(
    exec::Device& dev, uint32_t sms, HashScheme scheme, uint32_t pairs,
    uint32_t radix_shift,
    const std::function<std::pair<partition::RowInput, partition::RowInput>(
        uint32_t)>& pair_of,
    mem::Buffer* result, uint64_t* result_cursor, uint64_t* matches,
    uint64_t* checksum) {
  const uint64_t scratchpad_bytes = dev.hw().gpu.scratchpad_bytes;
  util::Status status;
  dev.Launch({.name = "join", .sms = sms}, [&](exec::KernelContext& ctx) {
    struct alignas(util::kCacheLineBytes) BlockOut {
      std::vector<partition::Tuple> pairs;
      uint64_t matches = 0;
      uint64_t checksum = 0;
      uint64_t offset = 0;  // result row of the block's first match
    };
    std::vector<BlockOut> outs(pairs);
    ctx.ForEachBlock(pairs, [&](exec::KernelContext& sub, uint32_t q) {
      sub.SetSanitizerBlock(q);
      const auto [r, s] = pair_of(q);
      BlockOut& out = outs[q];
      if (result != nullptr) out.pairs.reserve(s.size());
      ThreadJoiner(scheme, scratchpad_bytes)
          .JoinSlicesEmit(sub, r, s, radix_shift,
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
    ctx.ForEachBlock(pairs, [&](exec::KernelContext& sub, uint32_t q) {
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

util::Status JoinRefinedPairs(exec::Device& dev, uint32_t sms,
                              HashScheme scheme, const mem::Buffer& r_rows,
                              const partition::PartitionLayout& r_layout,
                              const mem::Buffer& s_rows,
                              const partition::PartitionLayout& s_layout,
                              mem::Buffer* result, uint64_t* result_cursor,
                              uint64_t* matches, uint64_t* checksum) {
  const partition::RadixConfig radix = r_layout.radix();
  return JoinPairs(
      dev, sms, scheme, radix.fanout(), radix.shift + radix.bits,
      [&](uint32_t q) {
        return std::make_pair(partition::PartitionInputOf(r_rows, r_layout, q),
                              partition::PartitionInputOf(s_rows, s_layout, q));
      },
      result, result_cursor, matches, checksum);
}

}  // namespace triton::join
