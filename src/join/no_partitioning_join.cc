#include "join/no_partitioning_join.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "hash/hash_fn.h"
#include "hash/linear_table.h"
#include "hash/perfect_table.h"
#include "util/bits.h"
#include "util/logging.h"

namespace triton::join {

namespace {

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
/// wave stay alive) against per-block and per-wave overhead, never a
/// modeled value.
constexpr uint64_t kBlockTuples = 4096;
constexpr uint32_t kWaveBlocks = 64;

/// Runs body(sub, begin, end, b) over [0, n) in blocks of kBlockTuples, one
/// ForEachBlock (or ForEachBlockInOrder) wave of up to kWaveBlocks blocks
/// at a time. After each wave, after_wave(blocks) runs on the calling
/// thread with the wave's block count (slot b held block b's chunk); the
/// loop stops early when it returns false.
template <typename Body, typename AfterWave>
void ForEachWave(exec::KernelContext& ctx, uint64_t n, bool in_order,
                 const Body& body, const AfterWave& after_wave) {
  constexpr uint64_t kWaveTuples = kWaveBlocks * kBlockTuples;
  for (uint64_t wave = 0; wave < n; wave += kWaveTuples) {
    const uint64_t wave_end = std::min(n, wave + kWaveTuples);
    const auto blocks =
        static_cast<uint32_t>(util::CeilDiv(wave_end - wave, kBlockTuples));
    auto block = [&](exec::KernelContext& sub, uint32_t b) {
      const uint64_t begin = wave + b * kBlockTuples;
      body(sub, begin, std::min(wave_end, begin + kBlockTuples), b);
    };
    if (in_order) {
      ctx.ForEachBlockInOrder(blocks, block);
    } else {
      ctx.ForEachBlock(blocks, block);
    }
    if (!after_wave(blocks)) return;
  }
}

/// One probe block's output, appended in block order after its wave.
struct ProbeBlockOut {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  /// Materialized <build, probe> payload pairs, in probe order.
  std::vector<hash::Entry> rows;
};

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

util::StatusOr<JoinRun> NoPartitioningJoin::Run(exec::Device& dev,
                                                const data::Relation& r,
                                                const data::Relation& s) {
  if (r.payload_cols() == 0 || s.payload_cols() == 0) {
    return util::Status::InvalidArgument(
        "no-partitioning join needs one payload column per relation");
  }
  JoinRun run;
  const uint64_t table_bytes = NpjTableBytes(config_.scheme, r.rows());
  // Result materialization stages matches in GPU memory before streaming
  // them out; reserve an eighth of the GPU for it.
  uint64_t gpu_avail = dev.allocator().gpu_free();
  if (config_.result_mode == ResultMode::kMaterialize) {
    uint64_t reserve = dev.hw().gpu_mem.capacity / 8;
    gpu_avail = gpu_avail > reserve ? gpu_avail - reserve : 0;
  }
  // Small headroom absorbs interleaving page-granularity rounding.
  gpu_avail -= gpu_avail / 64;
  const uint64_t cache =
      std::min({config_.cache_bytes, table_bytes, gpu_avail});
  auto table = dev.allocator().AllocateInterleaved(table_bytes, cache);
  if (!table.ok()) return table.status();
  std::memset(table->data(), 0, table->size());

  auto result = AllocateResult(dev, config_.result_mode, s.rows());
  if (!result.ok()) {
    dev.allocator().Free(*table);
    return result.status();
  }

  dev.ClearTrace();
  const data::Key* r_keys = r.keys();
  const data::Value* r_vals = r.payload(0);
  const data::Key* s_keys = s.keys();
  const data::Value* s_vals = s.payload(0);
  const HashScheme scheme = config_.scheme;
  const char* scheme_name = HashSchemeName(scheme);

  // The table buffer as each scheme lays it out: a slot array (perfect,
  // linear probing) or bucket heads followed by chain nodes.
  hash::Entry* slots = table->as<hash::Entry>();
  const uint64_t r_rows = r.rows();
  const uint64_t num_heads = util::NextPowerOfTwo(r_rows);
  uint64_t* heads = table->as<uint64_t>();
  Node* nodes =
      reinterpret_cast<Node*>(table->data() + num_heads * sizeof(uint64_t));
  const uint32_t head_bits = util::FloorLog2(num_heads);
  auto head_of = [&](data::Key key) {
    return hash::HashBits(hash::MultiplyShift(static_cast<uint64_t>(key)), 0,
                          head_bits);
  };
  auto in_domain = [&](data::Key key) {
    return key >= 1 && static_cast<uint64_t>(key) <= r_rows;
  };

  // --- Build phase ---
  // Insertion order decides the linear-probing layout and the chain order,
  // so the blocks run in input order. The first contract violation in
  // input order stops the build; later blocks skip.
  util::Status status;
  auto refuse = [&](uint64_t row, data::Key key, const char* why) {
    status = util::Status::InvalidArgument(
        std::string("no-partitioning join (") + scheme_name +
        "): build row " + std::to_string(row) + " has key " +
        std::to_string(key) + ", " + why);
  };
  exec::KernelConfig build_cfg;
  build_cfg.name = std::string("npj_build_") + scheme_name;
  dev.Launch(build_cfg, [&](exec::KernelContext& ctx) {
    ctx.ReadSeq(r.key_buffer(), 0, r.rows() * sizeof(data::Key));
    ctx.ReadSeq(r.payload_buffer(0), 0, r.rows() * sizeof(data::Value));
    ctx.AddTuples(r.rows());
    ctx.Charge(static_cast<uint64_t>(r.rows() * kBuildCyclesPerTuple));

    auto build_block = [&](exec::KernelContext& sub, uint64_t begin,
                           uint64_t end, uint32_t) {
      if (!status.ok()) return;
      switch (scheme) {
        case HashScheme::kPerfect:
          for (uint64_t i = begin; i < end; ++i) {
            if (i + kPrefetchDist < end &&
                in_domain(r_keys[i + kPrefetchDist])) {
              __builtin_prefetch(
                  &slots[static_cast<uint64_t>(r_keys[i + kPrefetchDist] - 1)],
                  1);
            }
            if (!in_domain(r_keys[i])) {
              return refuse(i, r_keys[i], "outside the dense domain 1..|R|");
            }
            const uint64_t slot = static_cast<uint64_t>(r_keys[i] - 1);
            if (slots[slot].key != 0) {
              return refuse(i, r_keys[i], "which an earlier row holds");
            }
            slots[slot] = {r_keys[i], r_vals[i]};
            sub.WriteRand(*table, slot * sizeof(hash::Entry),
                          sizeof(hash::Entry));
          }
          return;
        case HashScheme::kLinearProbing: {
          const hash::LinearTable linear(slots,
                                         table->size() / sizeof(hash::Entry));
          for (uint64_t i = begin; i < end; ++i) {
            if (i + kPrefetchDist < end) {
              __builtin_prefetch(
                  &slots[linear.SlotOf(r_keys[i + kPrefetchDist])], 1);
            }
            if (r_keys[i] == 0) {
              return refuse(i, 0, "which marks an empty slot");
            }
            uint64_t slot = linear.SlotOf(r_keys[i]);
            while (slots[slot].key != 0) {
              sub.ReadRand(*table, slot * sizeof(hash::Entry),
                           sizeof(hash::Entry));
              if (slots[slot].key == r_keys[i]) {
                return refuse(i, r_keys[i], "which an earlier row holds");
              }
              slot = linear.NextSlot(slot);
            }
            slots[slot] = {r_keys[i], r_vals[i]};
            sub.WriteRand(*table, slot * sizeof(hash::Entry),
                          sizeof(hash::Entry));
          }
          return;
        }
        case HashScheme::kBucketChaining:
          for (uint64_t i = begin; i < end; ++i) {
            if (i + kPrefetchDist < end) {
              __builtin_prefetch(&heads[head_of(r_keys[i + kPrefetchDist])],
                                 1);
            }
            const uint64_t b = head_of(r_keys[i]);
            nodes[i] = {r_keys[i], r_vals[i], heads[b]};
            sub.WriteRand(*table,
                          num_heads * sizeof(uint64_t) + i * sizeof(Node),
                          sizeof(Node));
            sub.ReadRand(*table, b * sizeof(uint64_t), sizeof(uint64_t));
            sub.WriteRand(*table, b * sizeof(uint64_t), sizeof(uint64_t));
            heads[b] = i + 1;
          }
          return;
      }
    };
    ForEachWave(ctx, r_rows, /*in_order=*/true, build_block,
                [&](uint32_t) { return status.ok(); });
  });

  // --- Probe phase ---
  // Blocks probe in any order; each stages its matches, and after every
  // wave the blocks' outputs are appended in block order, which is probe
  // order.
  uint64_t matches = 0;
  uint64_t checksum = 0;
  if (status.ok()) {
    exec::KernelConfig probe_cfg;
    probe_cfg.name = std::string("npj_probe_") + scheme_name;
    const bool materialize = result->valid();
    std::vector<ProbeBlockOut> outs(kWaveBlocks);
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
          if (materialize) out.rows.push_back({build_val, probe_val});
          ++out.matches;
          out.checksum += static_cast<uint64_t>(build_val) +
                          static_cast<uint64_t>(probe_val);
        };
        switch (scheme) {
          case HashScheme::kPerfect:
            for (uint64_t j = begin; j < end; ++j) {
              if (j + kPrefetchDist < end &&
                  in_domain(s_keys[j + kPrefetchDist])) {
                __builtin_prefetch(&slots[static_cast<uint64_t>(
                    s_keys[j + kPrefetchDist] - 1)]);
              }
              const data::Key k = s_keys[j];
              if (!in_domain(k)) continue;
              const uint64_t slot = static_cast<uint64_t>(k - 1);
              sub.ReadRand(*table, slot * sizeof(hash::Entry),
                           sizeof(hash::Entry));
              if (slots[slot].key == k) emit(slots[slot].value, s_vals[j]);
            }
            return;
          case HashScheme::kLinearProbing: {
            const hash::LinearTable linear(
                slots, table->size() / sizeof(hash::Entry));
            for (uint64_t j = begin; j < end; ++j) {
              if (j + kPrefetchDist < end) {
                __builtin_prefetch(
                    &slots[linear.SlotOf(s_keys[j + kPrefetchDist])]);
              }
              // Key 0 marks an empty slot, so emptiness is tested first: a
              // probe for key 0 must not match one.
              for (uint64_t slot = linear.SlotOf(s_keys[j]);;
                   slot = linear.NextSlot(slot)) {
                sub.ReadRand(*table, slot * sizeof(hash::Entry),
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
            for (uint64_t j = begin; j < end; ++j) {
              if (j + kPrefetchDist < end) {
                __builtin_prefetch(&heads[head_of(s_keys[j + kPrefetchDist])]);
              }
              if (j + kNodeDist < end) {
                const uint64_t c = heads[head_of(s_keys[j + kNodeDist])];
                if (c != 0) __builtin_prefetch(&nodes[c - 1]);
              }
              const uint64_t hb = head_of(s_keys[j]);
              sub.ReadRand(*table, hb * sizeof(uint64_t), sizeof(uint64_t));
              for (uint64_t cur = heads[hb]; cur != 0;
                   cur = nodes[cur - 1].next) {
                sub.ReadRand(*table,
                             num_heads * sizeof(uint64_t) +
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

      uint64_t cursor = 0;  // result rows stored so far
      ForEachWave(ctx, s.rows(), /*in_order=*/false, probe_block,
                  [&](uint32_t blocks) {
                    for (uint32_t b = 0; b < blocks; ++b) {
                      matches += outs[b].matches;
                      checksum += outs[b].checksum;
                      if (!materialize) continue;
                      // Repeated build keys can make more matches than the
                      // |S|-row result buffer holds.
                      if (outs[b].rows.size() > s.rows() - cursor) {
                        status = TooManyMatches(
                            std::string("no-partitioning join (") +
                                scheme_name + ")",
                            s.rows());
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
  }

  dev.allocator().Free(*table);
  dev.allocator().Free(*result);
  if (!status.ok()) return status;
  run.matches = matches;
  run.checksum = checksum;
  run.phases = dev.trace();
  for (const auto& p : run.phases) run.totals.Merge(p.counters);
  run.elapsed = dev.TraceElapsed();
  return run;
}

}  // namespace triton::join
