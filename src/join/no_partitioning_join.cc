#include "join/no_partitioning_join.h"

#include <algorithm>
#include <cstring>

#include "hash/hash_fn.h"
#include "hash/linear_table.h"
#include "hash/perfect_table.h"
#include "util/bits.h"
#include "util/logging.h"

namespace triton::join {

namespace {

/// SM-cycles per build / probe tuple (calibrated; random accesses dominate
/// out-of-core runs regardless).
// Calibrated to the paper's in-core rates (Figure 21's dissection: probe
// 4.3 G tuples/s, build 1.8 G tuples/s on 80 SMs).
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
  if (!result.ok()) return result.status();

  dev.ClearTrace();
  const data::Key* r_keys = r.keys();
  const data::Value* r_vals = r.payload(0);
  const data::Key* s_keys = s.keys();
  const data::Value* s_vals = s.payload(0);

  // --- Build phase ---
  exec::KernelConfig build_cfg;
  build_cfg.name = std::string("npj_build_") + HashSchemeName(config_.scheme);
  dev.Launch(build_cfg, [&](exec::KernelContext& ctx) {
    ctx.ReadSeq(r.key_buffer(), 0, r.rows() * sizeof(data::Key));
    ctx.ReadSeq(r.payload_buffer(0), 0, r.rows() * sizeof(data::Value));
    ctx.AddTuples(r.rows());
    ctx.Charge(static_cast<uint64_t>(r.rows() * kBuildCyclesPerTuple));

    switch (config_.scheme) {
      case HashScheme::kPerfect: {
        hash::Entry* slots = table->as<hash::Entry>();
        const uint64_t n = r.rows();
        for (uint64_t i = 0; i < n; ++i) {
          if (i + kPrefetchDist < n) {
            __builtin_prefetch(
                &slots[static_cast<uint64_t>(r_keys[i + kPrefetchDist] - 1)],
                1);
          }
          uint64_t slot = static_cast<uint64_t>(r_keys[i] - 1);
          slots[slot] = {r_keys[i], r_vals[i]};
          ctx.WriteRand(*table, slot * sizeof(hash::Entry),
                        sizeof(hash::Entry));
        }
        break;
      }
      case HashScheme::kLinearProbing: {
        uint64_t capacity = table->size() / sizeof(hash::Entry);
        hash::LinearTable t(table->as<hash::Entry>(), capacity);
        hash::Entry* slots = table->as<hash::Entry>();
        const uint64_t n = r.rows();
        for (uint64_t i = 0; i < n; ++i) {
          if (i + kPrefetchDist < n) {
            __builtin_prefetch(&slots[t.SlotOf(r_keys[i + kPrefetchDist])],
                               1);
          }
          uint64_t slot = t.SlotOf(r_keys[i]);
          while (slots[slot].key != 0) {
            ctx.ReadRand(*table, slot * sizeof(hash::Entry),
                         sizeof(hash::Entry));
            slot = t.NextSlot(slot);
          }
          slots[slot] = {r_keys[i], r_vals[i]};
          ctx.WriteRand(*table, slot * sizeof(hash::Entry),
                        sizeof(hash::Entry));
        }
        break;
      }
      case HashScheme::kBucketChaining: {
        uint64_t num_heads = util::NextPowerOfTwo(r.rows());
        uint64_t* heads = table->as<uint64_t>();
        Node* nodes = reinterpret_cast<Node*>(table->data() +
                                              num_heads * sizeof(uint64_t));
        uint32_t head_bits = util::FloorLog2(num_heads);
        const uint64_t n = r.rows();
        for (uint64_t i = 0; i < n; ++i) {
          if (i + kPrefetchDist < n) {
            __builtin_prefetch(
                &heads[hash::HashBits(
                    hash::MultiplyShift(
                        static_cast<uint64_t>(r_keys[i + kPrefetchDist])),
                    0, head_bits)],
                1);
          }
          uint64_t b = hash::HashBits(
              hash::MultiplyShift(static_cast<uint64_t>(r_keys[i])), 0,
              head_bits);
          nodes[i] = {r_keys[i], r_vals[i], heads[b]};
          ctx.WriteRand(*table,
                        num_heads * sizeof(uint64_t) + i * sizeof(Node),
                        sizeof(Node));
          ctx.ReadRand(*table, b * sizeof(uint64_t), sizeof(uint64_t));
          ctx.WriteRand(*table, b * sizeof(uint64_t), sizeof(uint64_t));
          heads[b] = i + 1;
        }
        break;
      }
    }
  });

  // --- Probe phase ---
  uint64_t matches = 0;
  uint64_t checksum = 0;
  exec::KernelConfig probe_cfg;
  probe_cfg.name = std::string("npj_probe_") + HashSchemeName(config_.scheme);
  dev.Launch(probe_cfg, [&](exec::KernelContext& ctx) {
    ctx.ReadSeq(s.key_buffer(), 0, s.rows() * sizeof(data::Key));
    ctx.ReadSeq(s.payload_buffer(0), 0, s.rows() * sizeof(data::Value));
    ctx.AddTuples(s.rows());
    ctx.Charge(static_cast<uint64_t>(s.rows() * kProbeCyclesPerTuple));

    hash::Entry* out =
        result->valid() ? result->as<hash::Entry>() : nullptr;
    auto emit = [&](int64_t build_val, int64_t probe_val) {
      if (out != nullptr) out[matches] = {build_val, probe_val};
      ++matches;
      checksum += static_cast<uint64_t>(build_val) +
                  static_cast<uint64_t>(probe_val);
    };

    switch (config_.scheme) {
      case HashScheme::kPerfect: {
        const hash::Entry* slots = table->as<hash::Entry>();
        const uint64_t n = s.rows();
        const uint64_t r_rows = r.rows();
        for (uint64_t j = 0; j < n; ++j) {
          if (j + kPrefetchDist < n) {
            data::Key pk = s_keys[j + kPrefetchDist];
            if (pk >= 1 && static_cast<uint64_t>(pk) <= r_rows) {
              __builtin_prefetch(&slots[static_cast<uint64_t>(pk - 1)]);
            }
          }
          data::Key k = s_keys[j];
          if (k < 1 || static_cast<uint64_t>(k) > r_rows) continue;
          uint64_t slot = static_cast<uint64_t>(k - 1);
          ctx.ReadRand(*table, slot * sizeof(hash::Entry),
                       sizeof(hash::Entry));
          if (slots[slot].key == k) emit(slots[slot].value, s_vals[j]);
        }
        break;
      }
      case HashScheme::kLinearProbing: {
        uint64_t capacity = table->size() / sizeof(hash::Entry);
        hash::LinearTable t(table->as<hash::Entry>(), capacity);
        const hash::Entry* slots = table->as<hash::Entry>();
        const uint64_t n = s.rows();
        for (uint64_t j = 0; j < n; ++j) {
          if (j + kPrefetchDist < n) {
            __builtin_prefetch(&slots[t.SlotOf(s_keys[j + kPrefetchDist])]);
          }
          uint64_t slot = t.SlotOf(s_keys[j]);
          while (true) {
            ctx.ReadRand(*table, slot * sizeof(hash::Entry),
                         sizeof(hash::Entry));
            if (slots[slot].key == s_keys[j]) {
              emit(slots[slot].value, s_vals[j]);
              break;
            }
            if (slots[slot].key == 0) break;
            slot = t.NextSlot(slot);
          }
        }
        break;
      }
      case HashScheme::kBucketChaining: {
        uint64_t num_heads = util::NextPowerOfTwo(r.rows());
        const uint64_t* heads = table->as<uint64_t>();
        const Node* nodes = reinterpret_cast<const Node*>(
            table->data() + num_heads * sizeof(uint64_t));
        uint32_t head_bits = util::FloorLog2(num_heads);
        const uint64_t n = s.rows();
        // Two prefetch distances: the far one covers the bucket head, the
        // near one reads the (by then cached, read-only) head to prefetch
        // the first chain node.
        constexpr uint64_t kNodeDist = 8;
        for (uint64_t j = 0; j < n; ++j) {
          if (j + kPrefetchDist < n) {
            __builtin_prefetch(&heads[hash::HashBits(
                hash::MultiplyShift(
                    static_cast<uint64_t>(s_keys[j + kPrefetchDist])),
                0, head_bits)]);
          }
          if (j + kNodeDist < n) {
            uint64_t hb = hash::HashBits(
                hash::MultiplyShift(
                    static_cast<uint64_t>(s_keys[j + kNodeDist])),
                0, head_bits);
            uint64_t c = heads[hb];
            if (c != 0) __builtin_prefetch(&nodes[c - 1]);
          }
          uint64_t b = hash::HashBits(
              hash::MultiplyShift(static_cast<uint64_t>(s_keys[j])), 0,
              head_bits);
          ctx.ReadRand(*table, b * sizeof(uint64_t), sizeof(uint64_t));
          for (uint64_t cur = heads[b]; cur != 0; cur = nodes[cur - 1].next) {
            ctx.ReadRand(*table,
                         num_heads * sizeof(uint64_t) +
                             (cur - 1) * sizeof(Node),
                         sizeof(Node));
            if (nodes[cur - 1].key == s_keys[j]) {
              emit(nodes[cur - 1].value, s_vals[j]);
            }
          }
        }
        break;
      }
    }

    // Materialized results stream out through per-warp linear-allocator
    // buffers: sequential, coalesced writes.
    if (result->valid() && matches > 0) {
      ctx.WriteSeq(*result, 0, matches * sizeof(hash::Entry));
    }
  });

  run.matches = matches;
  run.checksum = checksum;
  run.phases = dev.trace();
  for (const auto& p : run.phases) run.totals.Merge(p.counters);
  run.elapsed = dev.TraceElapsed();

  dev.allocator().Free(*table);
  dev.allocator().Free(*result);
  return run;
}

}  // namespace triton::join
