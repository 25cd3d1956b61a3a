#include "join/scratch_join.h"

#include <algorithm>
#include <vector>

#include "hash/bucket_chain_table.h"
#include "util/logging.h"

namespace triton::join {

namespace {

constexpr uint32_t kBuckets = hash::BucketChainTable::kDefaultBuckets;

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

void ScratchJoiner::JoinSlicesEmit(
    exec::KernelContext& ctx, const mem::Buffer& r_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
    const mem::Buffer& s_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
    uint32_t radix_shift,
    const std::function<void(int64_t, int64_t)>& emit) {
  const partition::Tuple* r_data = r_rows.as<partition::Tuple>();
  const partition::Tuple* s_data = s_rows.as<partition::Tuple>();

  uint64_t r_total = 0, s_total = 0;
  for (const auto& [b, c] : r_slices) {
    (void)b;
    r_total += c;
  }
  for (const auto& [b, c] : s_slices) {
    (void)b;
    s_total += c;
  }
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

void ScratchJoiner::JoinSlices(
    exec::KernelContext& ctx, const mem::Buffer& r_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& r_slices,
    const mem::Buffer& s_rows,
    const std::vector<std::pair<uint64_t, uint64_t>>& s_slices,
    uint32_t radix_shift, mem::Buffer* result, uint64_t* result_cursor,
    uint64_t* matches, uint64_t* checksum) {
  const uint64_t first_matches = *matches;
  // Matches are staged in a chunk, and each full chunk is stored in one
  // bulk write at the result cursor.
  constexpr uint64_t kChunkTuples = 4096;
  std::vector<partition::Tuple> chunk;
  if (result != nullptr) chunk.reserve(kChunkTuples);
  auto drain_chunk = [&] {
    if (chunk.empty()) return;
    ctx.StoreRun(*result, *result_cursor, chunk.data(), chunk.size());
    *result_cursor += chunk.size();
    chunk.clear();
  };
  JoinSlicesEmit(ctx, r_rows, r_slices, s_rows, s_slices, radix_shift,
                 [&](int64_t build_val, int64_t probe_val) {
                   if (result != nullptr) {
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
  uint64_t emitted = *matches - first_matches;
  if (result != nullptr && emitted > 0) {
    ctx.WriteSeq(*result,
                 (*result_cursor - emitted) * sizeof(partition::Tuple),
                 emitted * sizeof(partition::Tuple));
  }
}

void ScratchJoiner::JoinRange(exec::KernelContext& ctx,
                              const mem::Buffer& rows, uint64_t r_offset,
                              uint64_t r_count, uint64_t s_offset,
                              uint64_t s_count, uint32_t radix_shift,
                              mem::Buffer* result, uint64_t* result_cursor,
                              uint64_t* matches, uint64_t* checksum) {
  JoinSlices(ctx, rows, {{r_offset, r_count}}, rows, {{s_offset, s_count}},
             radix_shift, result, result_cursor, matches, checksum);
}

void JoinRefinedPairs(exec::Device& dev, uint32_t sms, HashScheme scheme,
                      const mem::Buffer& r_rows,
                      const partition::PartitionLayout& r_layout,
                      const mem::Buffer& s_rows,
                      const partition::PartitionLayout& s_layout,
                      mem::Buffer* result, uint64_t* result_cursor,
                      uint64_t* matches, uint64_t* checksum) {
  const partition::RadixConfig radix = r_layout.radix();
  const uint64_t scratchpad_bytes = dev.hw().gpu.scratchpad_bytes;
  dev.Launch({.name = "join", .sms = sms}, [&](exec::KernelContext& ctx) {
    struct BlockOut {
      std::vector<partition::Tuple> pairs;
      uint64_t matches = 0;
      uint64_t checksum = 0;
    };
    std::vector<BlockOut> outs(radix.fanout());
    ctx.ForEachBlock(radix.fanout(), [&](exec::KernelContext& sub,
                                         uint32_t q) {
      sub.SetSanitizerBlock(q);
      std::vector<std::pair<uint64_t, uint64_t>> r_sl, s_sl;
      r_layout.ForEachSlice(
          q, [&](uint64_t b, uint64_t c) { r_sl.emplace_back(b, c); });
      s_layout.ForEachSlice(
          q, [&](uint64_t b, uint64_t c) { s_sl.emplace_back(b, c); });
      ScratchJoiner joiner(scheme, scratchpad_bytes);
      BlockOut& out = outs[q];
      joiner.JoinSlicesEmit(
          sub, r_rows, r_sl, s_rows, s_sl, radix.shift + radix.bits,
          [&](int64_t build_val, int64_t probe_val) {
            if (result != nullptr) {
              out.pairs.push_back(partition::Tuple{build_val, probe_val});
            }
            ++out.matches;
            out.checksum += static_cast<uint64_t>(build_val) +
                            static_cast<uint64_t>(probe_val);
          });
    });
    for (const BlockOut& out : outs) {
      *matches += out.matches;
      *checksum += out.checksum;
      if (out.pairs.empty()) continue;
      const uint64_t at = *result_cursor;
      ctx.StoreRun(*result, at, out.pairs.data(), out.pairs.size());
      *result_cursor += out.pairs.size();
      ctx.WriteSeq(*result, at * sizeof(partition::Tuple),
                   out.pairs.size() * sizeof(partition::Tuple));
    }
  });
}

}  // namespace triton::join
