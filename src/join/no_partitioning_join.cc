#include "join/no_partitioning_join.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "hash/entry.h"
#include "hash/hash_fn.h"
#include "hash/linear_table.h"
#include "util/bits.h"

namespace triton::join {

namespace {

/// SM-cycles per build / probe tuple, calibrated to the paper's in-core
/// rates (Figure 21's dissection: probe 4.3 G tuples/s, build 1.8 G
/// tuples/s on 80 SMs); random accesses dominate out-of-core runs
/// regardless.
constexpr double kBuildCyclesPerTuple = 68.0;
constexpr double kProbeCyclesPerTuple = 28.0;

/// Distance (in tuples) the build and probe loops prefetch hash-table lines
/// ahead of the current tuple. The table spans hundreds of MiB, so every
/// slot touch is a host DRAM miss; prefetching restores memory-level
/// parallelism the per-tuple accounting calls otherwise serialize.
/// Prefetches only warm host caches, never change the modeled accesses.
constexpr uint64_t kPrefetchDist = 24;

/// Chained-table node for the bucket-chaining variant.
struct Node {
  int64_t key;
  int64_t value;
  uint64_t next;  // index + 1; 0 = end
};

/// Build and probe tuples per simulated thread block, and blocks per
/// ForEachBlock wave. Blocks are contiguous input chunks reduced in block
/// order, so the TLB replay follows input order whatever the two sizes
/// are: they trade host memory (the TLB logs and staged matches of one
/// wave, and the build's probe distances of two, stay alive) against
/// per-block and per-wave overhead, never a modeled value.
constexpr uint64_t kBlockTuples = 4096;
constexpr uint32_t kWaveBlocks = 64;
constexpr uint64_t kWaveTuples = kBlockTuples * kWaveBlocks;

/// Runs body(sub, begin, end, b) over rows [0, segment_ends.back()) in
/// blocks of at most kBlockTuples, cut at every segment end so that each
/// block lies in one segment, one ForEachBlock wave of up to kWaveBlocks
/// blocks at a time. After each wave, after_wave(blocks, segment_of) runs
/// on the calling thread with the wave's block count and each block's
/// segment index (slot b held block b's chunk); the loop stops early when
/// it returns false.
template <typename Body, typename AfterWave>
void ForEachWave(exec::KernelContext& ctx,
                 const std::vector<uint64_t>& segment_ends, const Body& body,
                 const AfterWave& after_wave) {
  const uint64_t n = segment_ends.empty() ? 0 : segment_ends.back();
  uint64_t bounds[kWaveBlocks + 1] = {};
  size_t segment_of[kWaveBlocks] = {};
  size_t segment = 0;
  for (uint64_t pos = 0; pos < n;) {
    uint32_t blocks = 0;
    for (; blocks < kWaveBlocks && pos < n; ++blocks) {
      while (segment_ends[segment] <= pos) ++segment;
      bounds[blocks] = pos;
      segment_of[blocks] = segment;
      pos = std::min(segment_ends[segment], pos + kBlockTuples);
    }
    bounds[blocks] = pos;
    ctx.ForEachBlock(blocks, [&](exec::KernelContext& sub, uint32_t b) {
      body(sub, bounds[b], bounds[b + 1], b);
    });
    if (!after_wave(blocks, segment_of)) return;
  }
}

/// The table buffer as each scheme lays it out: a slot array (perfect,
/// linear probing) or bucket heads followed by chain nodes.
struct TableView {
  TableView(mem::Buffer& table, uint64_t build_rows)
      : slots(table.as<hash::Entry>()),
        heads(table.as<uint64_t>()),
        num_heads(util::NextPowerOfTwo(build_rows)),
        nodes(reinterpret_cast<Node*>(table.data() +
                                      num_heads * sizeof(uint64_t))),
        head_bits(util::FloorLog2(num_heads)),
        build_rows(build_rows) {}

  uint64_t HeadOf(data::Key key) const {
    return hash::HashBits(hash::MultiplyShift(static_cast<uint64_t>(key)), 0,
                          head_bits);
  }
  /// Whether the perfect table has a slot for `key`.
  bool InDomain(data::Key key) const {
    return key >= 1 && static_cast<uint64_t>(key) <= build_rows;
  }

  hash::Entry* slots;
  uint64_t* heads;
  uint64_t num_heads;
  Node* nodes;
  uint32_t head_bits;
  uint64_t build_rows;
};

/// One probe block's output, appended in block order after its wave.
struct alignas(util::kCacheLineBytes) ProbeBlockOut {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  /// Materialized <build, probe> payload pairs, in probe order.
  std::vector<hash::Entry> rows;
};

std::string JoinName(HashScheme scheme) {
  return std::string("no-partitioning join (") + HashSchemeName(scheme) +
         ")";
}

util::Status NeedsPayload(const data::Relation& rel) {
  if (rel.payload_cols() > 0) return util::Status::OK();
  return util::Status::InvalidArgument(
      "no-partitioning join needs one payload column per relation");
}

}  // namespace

uint64_t NpjTableBytes(HashScheme scheme, uint64_t r_tuples) {
  switch (scheme) {
    case HashScheme::kPerfect:
      return r_tuples * sizeof(hash::Entry);
    case HashScheme::kLinearProbing:
      return hash::LinearTable::CapacityFor(r_tuples) * sizeof(hash::Entry);
    case HashScheme::kBucketChaining:
      return util::NextPowerOfTwo(r_tuples) * sizeof(uint64_t) +
             r_tuples * sizeof(Node);
  }
  return 0;
}

util::StatusOr<NpjTable> NpjTable::Build(
    exec::Device& dev, const data::Relation& r,
    const NoPartitioningJoinConfig& config) {
  TRITON_RETURN_IF_ERROR(NeedsPayload(r));
  const HashScheme scheme = config.scheme;
  const uint64_t n = r.rows();
  // A linear-probing row's probe distance is below the number of rows
  // inserted before it, and the build records it in 32 bits.
  if (scheme == HashScheme::kLinearProbing && n > (uint64_t{1} << 32)) {
    return util::Status::InvalidArgument(
        JoinName(scheme) + ": more than 2^32 build rows");
  }
  const uint64_t table_bytes = NpjTableBytes(scheme, n);
  // Result materialization stages matches in GPU memory before streaming
  // them out; reserve an eighth of the GPU for it.
  uint64_t gpu_avail = dev.allocator().gpu_free();
  if (config.result_mode == ResultMode::kMaterialize) {
    uint64_t reserve = dev.hw().gpu_mem.capacity / 8;
    gpu_avail = gpu_avail > reserve ? gpu_avail - reserve : 0;
  }
  // Small headroom absorbs interleaving page-granularity rounding.
  gpu_avail -= gpu_avail / 64;
  const uint64_t cache =
      std::min({config.cache_bytes, table_bytes, gpu_avail});
  auto buffer = dev.allocator().AllocateInterleaved(table_bytes, cache);
  if (!buffer.ok()) return buffer.status();
  std::memset(buffer->data(), 0, buffer->size());
  NpjTable npj(scheme, n, std::move(buffer).value());
  mem::Buffer& table = npj.table_;
  const TableView view(table, n);
  const data::Key* r_keys = r.keys();
  const data::Value* r_vals = r.payload(0);

  util::Status status;
  auto refuse = [&](uint64_t row, data::Key key, const char* why) {
    status = util::Status::InvalidArgument(
        JoinName(scheme) + ": build row " + std::to_string(row) +
        " has key " + std::to_string(key) + ", " + why);
  };

  // The number of slots linear-probing row i read, at i % (2 *
  // kWaveTuples): the occupied ones before its own slot, or for a refused
  // duplicate up to and including the duplicate's (none for key 0). One
  // wave is accounted from these while the next, at most kWaveTuples rows
  // on, is inserted.
  std::vector<uint32_t> probe_reads(
      scheme == HashScheme::kLinearProbing ? 2 * kWaveTuples : 0);
  auto reads_of = [&](uint64_t row) -> uint32_t& {
    return probe_reads[row % (2 * kWaveTuples)];
  };

  // The insert: rows [begin, end) in input order, accounting nothing. It
  // returns the first row not inserted: `end`, or the first row that
  // breaks the key contract, which it refuses.
  hash::Entry* slots = view.slots;
  auto insert = [&](uint64_t begin, uint64_t end) {
    switch (scheme) {
      case HashScheme::kPerfect:
        for (uint64_t i = begin; i < end; ++i) {
          if (i + kPrefetchDist < end &&
              view.InDomain(r_keys[i + kPrefetchDist])) {
            __builtin_prefetch(
                &slots[static_cast<uint64_t>(r_keys[i + kPrefetchDist] - 1)],
                1);
          }
          if (!view.InDomain(r_keys[i])) {
            refuse(i, r_keys[i], "outside the dense domain 1..|R|");
            return i;
          }
          const uint64_t slot = static_cast<uint64_t>(r_keys[i] - 1);
          if (slots[slot].key != 0) {
            refuse(i, r_keys[i], "which an earlier row holds");
            return i;
          }
          slots[slot] = {r_keys[i], r_vals[i]};
        }
        return end;
      case HashScheme::kLinearProbing: {
        const hash::LinearTable linear(table.size() / sizeof(hash::Entry));
        for (uint64_t i = begin; i < end; ++i) {
          if (i + kPrefetchDist < end) {
            __builtin_prefetch(
                &slots[linear.SlotOf(r_keys[i + kPrefetchDist])], 1);
          }
          if (r_keys[i] == 0) {
            reads_of(i) = 0;
            refuse(i, 0, "which marks an empty slot");
            return i;
          }
          uint64_t slot = linear.SlotOf(r_keys[i]);
          uint32_t reads = 0;
          while (slots[slot].key != 0) {
            ++reads;
            if (slots[slot].key == r_keys[i]) break;
            slot = linear.NextSlot(slot);
          }
          reads_of(i) = reads;
          if (slots[slot].key != 0) {
            refuse(i, r_keys[i], "which an earlier row holds");
            return i;
          }
          slots[slot] = {r_keys[i], r_vals[i]};
        }
        return end;
      }
      case HashScheme::kBucketChaining:
        for (uint64_t i = begin; i < end; ++i) {
          if (i + kPrefetchDist < end) {
            __builtin_prefetch(
                &view.heads[view.HeadOf(r_keys[i + kPrefetchDist])], 1);
          }
          const uint64_t b = view.HeadOf(r_keys[i]);
          view.nodes[i] = {r_keys[i], r_vals[i], view.heads[b]};
          view.heads[b] = i + 1;
        }
        return end;
    }
    return begin;
  };

  // Accounts rows [begin, end), of which the insert stopped at `stop`:
  // each earlier row's accesses follow from its key and, under linear
  // probing, its read count, and row `stop` accounts only its reads (file
  // comment).
  auto account = [&](exec::KernelContext& sub, uint64_t begin, uint64_t end,
                     uint64_t stop) {
    switch (scheme) {
      case HashScheme::kPerfect:
        for (uint64_t i = begin; i < std::min(end, stop); ++i) {
          sub.WriteRand(table,
                        static_cast<uint64_t>(r_keys[i] - 1) *
                            sizeof(hash::Entry),
                        sizeof(hash::Entry));
        }
        return;
      case HashScheme::kLinearProbing: {
        const hash::LinearTable linear(table.size() / sizeof(hash::Entry));
        for (uint64_t i = begin; i < end; ++i) {
          uint64_t slot = linear.SlotOf(r_keys[i]);
          for (uint32_t k = reads_of(i); k > 0;
               --k, slot = linear.NextSlot(slot)) {
            sub.ReadRand(table, slot * sizeof(hash::Entry),
                         sizeof(hash::Entry));
          }
          if (i < stop) {
            sub.WriteRand(table, slot * sizeof(hash::Entry),
                          sizeof(hash::Entry));
          }
        }
        return;
      }
      case HashScheme::kBucketChaining:
        for (uint64_t i = begin; i < end; ++i) {
          const uint64_t b = view.HeadOf(r_keys[i]);
          sub.WriteRand(table,
                        view.num_heads * sizeof(uint64_t) + i * sizeof(Node),
                        sizeof(Node));
          sub.ReadRand(table, b * sizeof(uint64_t), sizeof(uint64_t));
          sub.WriteRand(table, b * sizeof(uint64_t), sizeof(uint64_t));
        }
        return;
    }
  };

  exec::KernelConfig build_cfg;
  build_cfg.name = std::string("npj_build_") + HashSchemeName(scheme);
  dev.Launch(build_cfg, [&](exec::KernelContext& ctx) {
    ctx.ReadSeq(r.key_buffer(), 0, n * sizeof(data::Key));
    ctx.ReadSeq(r.payload_buffer(0), 0, n * sizeof(data::Value));
    ctx.AddTuples(n);
    ctx.Charge(static_cast<uint64_t>(n * kBuildCyclesPerTuple));

    // Each wave's rows are accounted in one batch of blocks, whose task
    // inserts the next wave's rows meanwhile; the blocks account only rows
    // inserted before the batch. Waves start at one block and double up to
    // kWaveBlocks, so that little is inserted before the first batch and a
    // task never inserts more than twice the rows its batch accounts.
    uint64_t inserted = insert(0, std::min(n, kBlockTuples));
    for (uint64_t begin = 0, rows = kBlockTuples; begin < n;
         begin += rows, rows = std::min(2 * rows, kWaveTuples)) {
      const uint64_t end = std::min(n, begin + rows);
      const uint64_t stop = inserted;
      const uint64_t account_end = std::min(end, stop + 1);
      std::function<void()> insert_next;
      if (stop == end && end < n) {
        insert_next = [&] {
          inserted = insert(end, std::min(n, end + std::min(2 * rows,
                                                            kWaveTuples)));
        };
      }
      ctx.ForEachBlock(
          static_cast<uint32_t>(
              util::CeilDiv(account_end - begin, kBlockTuples)),
          [&](exec::KernelContext& sub, uint32_t b) {
            const uint64_t lo = begin + b * kBlockTuples;
            account(sub, lo, std::min(account_end, lo + kBlockTuples), stop);
          },
          insert_next);
      if (stop < end) break;
    }
  });
  if (!status.ok()) {
    npj.Free(dev);
    return status;
  }
  return npj;
}

util::StatusOr<std::vector<NpjTable::SegmentTotals>> NpjTable::Probe(
    exec::Device& dev, const data::Relation& s,
    const std::vector<uint64_t>& segment_ends, mem::Buffer* result) {
  TRITON_RETURN_IF_ERROR(NeedsPayload(s));
  if (segment_ends.empty() || segment_ends.back() != s.rows() ||
      !std::is_sorted(segment_ends.begin(), segment_ends.end())) {
    return util::Status::InvalidArgument(
        JoinName(scheme_) +
        ": probe segment ends must be ascending and end at the probe rows");
  }
  const TableView view(table_, build_rows_);
  const hash::Entry* slots = view.slots;
  const data::Key* s_keys = s.keys();
  const data::Value* s_vals = s.payload(0);
  const HashScheme scheme = scheme_;
  const mem::Buffer& table = table_;

  // Blocks probe in any order; each stages its matches, and after every
  // wave the blocks' outputs are appended in block order, which is probe
  // order.
  util::Status status;
  std::vector<SegmentTotals> totals(segment_ends.size());
  std::vector<ProbeBlockOut> outs(kWaveBlocks);
  exec::KernelConfig probe_cfg;
  probe_cfg.name = std::string("npj_probe_") + HashSchemeName(scheme);
  dev.Launch(probe_cfg, [&](exec::KernelContext& ctx) {
    ctx.ReadSeq(s.key_buffer(), 0, s.rows() * sizeof(data::Key));
    ctx.ReadSeq(s.payload_buffer(0), 0, s.rows() * sizeof(data::Value));
    ctx.AddTuples(s.rows());
    ctx.Charge(static_cast<uint64_t>(s.rows() * kProbeCyclesPerTuple));

    auto probe_block = [&](exec::KernelContext& sub, uint64_t begin,
                           uint64_t end, uint32_t b) {
      ProbeBlockOut& out = outs[b];
      out.matches = 0;
      out.checksum = 0;
      out.rows.clear();
      auto emit = [&](int64_t build_val, int64_t probe_val) {
        if (result != nullptr) out.rows.push_back({build_val, probe_val});
        ++out.matches;
        out.checksum += static_cast<uint64_t>(build_val) +
                        static_cast<uint64_t>(probe_val);
      };
      switch (scheme) {
        case HashScheme::kPerfect:
          for (uint64_t j = begin; j < end; ++j) {
            if (j + kPrefetchDist < end &&
                view.InDomain(s_keys[j + kPrefetchDist])) {
              __builtin_prefetch(
                  &slots[static_cast<uint64_t>(s_keys[j + kPrefetchDist] - 1)]);
            }
            const data::Key k = s_keys[j];
            if (!view.InDomain(k)) continue;
            const uint64_t slot = static_cast<uint64_t>(k - 1);
            sub.ReadRand(table, slot * sizeof(hash::Entry),
                         sizeof(hash::Entry));
            if (slots[slot].key == k) emit(slots[slot].value, s_vals[j]);
          }
          return;
        case HashScheme::kLinearProbing: {
          const hash::LinearTable linear(table.size() / sizeof(hash::Entry));
          for (uint64_t j = begin; j < end; ++j) {
            if (j + kPrefetchDist < end) {
              __builtin_prefetch(
                  &slots[linear.SlotOf(s_keys[j + kPrefetchDist])]);
            }
            // Key 0 marks an empty slot, so emptiness is tested first: a
            // probe for key 0 must not match one.
            for (uint64_t slot = linear.SlotOf(s_keys[j]);;
                 slot = linear.NextSlot(slot)) {
              sub.ReadRand(table, slot * sizeof(hash::Entry),
                           sizeof(hash::Entry));
              if (slots[slot].key == 0) break;
              if (slots[slot].key == s_keys[j]) {
                emit(slots[slot].value, s_vals[j]);
                break;
              }
            }
          }
          return;
        }
        case HashScheme::kBucketChaining: {
          // Two prefetch distances: the far one covers the bucket head,
          // the near one reads the (by then cached, read-only) head to
          // prefetch the first chain node.
          constexpr uint64_t kNodeDist = 8;
          const uint64_t* heads = view.heads;
          const Node* nodes = view.nodes;
          for (uint64_t j = begin; j < end; ++j) {
            if (j + kPrefetchDist < end) {
              __builtin_prefetch(&heads[view.HeadOf(s_keys[j + kPrefetchDist])]);
            }
            if (j + kNodeDist < end) {
              const uint64_t c = heads[view.HeadOf(s_keys[j + kNodeDist])];
              if (c != 0) __builtin_prefetch(&nodes[c - 1]);
            }
            const uint64_t hb = view.HeadOf(s_keys[j]);
            sub.ReadRand(table, hb * sizeof(uint64_t), sizeof(uint64_t));
            for (uint64_t cur = heads[hb]; cur != 0;
                 cur = nodes[cur - 1].next) {
              sub.ReadRand(table,
                           view.num_heads * sizeof(uint64_t) +
                               (cur - 1) * sizeof(Node),
                           sizeof(Node));
              if (nodes[cur - 1].key == s_keys[j]) {
                emit(nodes[cur - 1].value, s_vals[j]);
              }
            }
          }
          return;
        }
      }
    };

    const uint64_t capacity =
        result != nullptr ? result->size() / sizeof(hash::Entry) : 0;
    uint64_t cursor = 0;  // result rows stored so far
    ForEachWave(ctx, segment_ends, probe_block,
                [&](uint32_t blocks, const size_t* segment_of) {
                  for (uint32_t b = 0; b < blocks; ++b) {
                    SegmentTotals& seg = totals[segment_of[b]];
                    seg.matches += outs[b].matches;
                    seg.checksum += outs[b].checksum;
                    if (result == nullptr) continue;
                    // Repeated build keys can make more matches than the
                    // result buffer holds.
                    if (outs[b].rows.size() > capacity - cursor) {
                      status = TooManyMatches(JoinName(scheme), capacity);
                      return false;
                    }
                    ctx.StoreRun(*result, cursor, outs[b].rows.data(),
                                 outs[b].rows.size());
                    cursor += outs[b].rows.size();
                  }
                  return true;
                });

    // Materialized results stream out through per-warp linear-allocator
    // buffers: sequential, coalesced writes.
    if (cursor > 0) {
      ctx.WriteSeq(*result, 0, cursor * sizeof(hash::Entry));
    }
  });
  if (!status.ok()) return status;
  return totals;
}

util::StatusOr<JoinRun> NoPartitioningJoin::Run(exec::Device& dev,
                                                const data::Relation& r,
                                                const data::Relation& s) {
  dev.ClearTrace();
  auto table = NpjTable::Build(dev, r, config_);
  if (!table.ok()) return table.status();
  auto result = AllocateResult(dev, config_.result_mode, s.rows());
  if (!result.ok()) {
    table->Free(dev);
    return result.status();
  }
  auto totals = table->Probe(dev, s, {s.rows()},
                             result->valid() ? &*result : nullptr);
  table->Free(dev);
  dev.allocator().Free(*result);
  if (!totals.ok()) return totals.status();

  JoinRun run;
  run.matches = totals->front().matches;
  run.checksum = totals->front().checksum;
  run.phases = dev.trace();
  for (const auto& p : run.phases) run.totals.Merge(p.counters);
  run.elapsed = dev.TraceElapsed();
  return run;
}

}  // namespace triton::join
