#include "serve/shared_build.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "data/generator.h"
#include "hash/perfect_table.h"
#include "join/no_partitioning_join.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/random.h"

namespace triton::serve {

util::StatusOr<std::unique_ptr<SharedBuild>> SharedBuild::Create(
    const sim::HwSpec& hw, MemoryArbiter& arbiter, const Config& config) {
  if (config.tuples == 0) {
    return util::Status::InvalidArgument("shared build needs tuples > 0");
  }
  const uint64_t page = hw.tlb.page_bytes;
  const uint64_t table_bytes = config.tuples * sizeof(hash::Entry);
  const uint64_t build_bytes =
      2 * util::AlignUp(config.tuples * sizeof(data::Key), page);
  uint64_t staging = config.staging_bytes;
  if (staging == 0) staging = hw.cpu_mem.capacity / 8;

  // The table wants GPU residency but spills to interleaved placement when
  // the GPU carve cannot hold it, exactly like the NPJ's cache budget.
  ResourceRequest req;
  req.gpu_bytes = std::min(table_bytes + page, hw.gpu_mem.capacity / 2);
  req.cpu_bytes = table_bytes + build_bytes + staging;
  auto res = arbiter.Reserve(req);
  if (!res.ok()) return res.status();

  auto sb = std::unique_ptr<SharedBuild>(new SharedBuild());
  sb->config_ = config;
  sb->config_.staging_bytes = staging;
  sb->reservation_ = std::move(res).value();
  sb->device_ =
      std::make_unique<exec::Device>(arbiter.CarvedSpec(sb->reservation_));
  exec::Device& dev = *sb->device_;

  auto rel = data::Relation::AllocateCpu(dev.allocator(), config.tuples);
  if (!rel.ok()) return rel.status();
  sb->build_ = std::move(rel).value();
  data::FillPrimaryKeys(sb->build_, config.seed, /*shuffle=*/true);
  data::FillPayloads(sb->build_, config.seed ^ 0x9e3779b97f4a7c15ULL);

  // Headroom for page-granularity rounding of the interleaved placement.
  uint64_t gpu_avail = dev.allocator().gpu_free();
  gpu_avail -= gpu_avail / 64;
  auto table = dev.allocator().AllocateInterleaved(
      table_bytes, std::min(table_bytes, gpu_avail));
  if (!table.ok()) return table.status();
  sb->table_ = std::move(table).value();
  std::memset(sb->table_.data(), 0, sb->table_.size());

  const data::Key* keys = sb->build_.keys();
  const data::Value* vals = sb->build_.payload(0);
  exec::KernelConfig build_cfg;
  build_cfg.name = "serve_build";
  exec::KernelRecord record =
      dev.Launch(build_cfg, [&](exec::KernelContext& ctx) {
        ctx.ReadSeq(sb->build_.key_buffer(), 0,
                    config.tuples * sizeof(data::Key));
        ctx.ReadSeq(sb->build_.payload_buffer(0), 0,
                    config.tuples * sizeof(data::Value));
        ctx.AddTuples(config.tuples);
        ctx.Charge(
            static_cast<uint64_t>(config.tuples * join::kBuildCyclesPerTuple));
        hash::Entry* slots = sb->table_.as<hash::Entry>();
        for (uint64_t i = 0; i < config.tuples; ++i) {
          uint64_t slot = static_cast<uint64_t>(keys[i] - 1);
          slots[slot] = {keys[i], vals[i]};
          ctx.WriteRand(sb->table_, slot * sizeof(hash::Entry),
                        sizeof(hash::Entry));
        }
      });
  sb->build_elapsed_ = record.Elapsed();
  return sb;
}

util::StatusOr<BatchRun> SharedBuild::RunBatch(
    const std::vector<ProbeSpec>& specs) {
  if (specs.empty()) {
    return util::Status::InvalidArgument("empty probe batch");
  }
  uint64_t total = 0;
  for (const ProbeSpec& s : specs) {
    if (s.tuples > UINT64_MAX / sizeof(data::Key) - total) {
      return util::Status::InvalidArgument("probe batch byte size overflows");
    }
    total += s.tuples;
  }
  if (total == 0) {
    return util::Status::InvalidArgument("probe batch with 0 tuples");
  }

  exec::Device& dev = *device_;
  // Stage the batch inside an arena: simulated addresses (and therefore
  // TLB physics) restart from the same base for every batch.
  const uint64_t arena = dev.allocator().BeginArena();
  BatchRun run;
  {
    auto keys = dev.allocator().AllocateCpu(total * sizeof(data::Key));
    if (!keys.ok()) {
      CHECK_OK(dev.allocator().EndArena(arena));
      return keys.status();
    }
    auto vals = dev.allocator().AllocateCpu(total * sizeof(data::Value));
    if (!vals.ok()) {
      CHECK_OK(dev.allocator().EndArena(arena));
      return vals.status();
    }

    // Each request's keys come from its own seed, so its functional result
    // is identical whichever batch it lands in.
    data::Key* k = keys->as<data::Key>();
    data::Value* v = vals->as<data::Value>();
    uint64_t cursor = 0;
    for (const ProbeSpec& s : specs) {
      util::Lcg64 lcg(s.seed);
      for (uint64_t i = 0; i < s.tuples; ++i) {
        k[cursor + i] =
            static_cast<data::Key>(1 + lcg.NextBounded(config_.tuples));
        v[cursor + i] = static_cast<data::Value>(lcg.Next());
      }
      cursor += s.tuples;
    }

    run.results.resize(specs.size());
    exec::KernelConfig probe_cfg;
    probe_cfg.name = "serve_probe_batch";
    exec::KernelRecord record =
        dev.Launch(probe_cfg, [&](exec::KernelContext& ctx) {
          ctx.ReadSeq(*keys, 0, total * sizeof(data::Key));
          ctx.ReadSeq(*vals, 0, total * sizeof(data::Value));
          ctx.AddTuples(total);
          ctx.Charge(
              static_cast<uint64_t>(total * join::kProbeCyclesPerTuple));
          const hash::Entry* slots = table_.as<const hash::Entry>();
          uint64_t base = 0;
          for (size_t r = 0; r < specs.size(); ++r) {
            ProbeResult& out = run.results[r];
            for (uint64_t i = 0; i < specs[r].tuples; ++i) {
              const data::Key key = k[base + i];
              const uint64_t slot = static_cast<uint64_t>(key - 1);
              ctx.ReadRand(table_, slot * sizeof(hash::Entry),
                           sizeof(hash::Entry));
              if (slots[slot].key == key) {
                ++out.matches;
                out.checksum += static_cast<uint64_t>(slots[slot].value) +
                                static_cast<uint64_t>(v[base + i]);
              }
            }
            base += specs[r].tuples;
          }
        });
    run.elapsed = record.Elapsed();
    run.counters = record.counters;
    dev.allocator().Free(*keys);
    dev.allocator().Free(*vals);
  }
  TRITON_RETURN_IF_ERROR(dev.allocator().EndArena(arena));
  return run;
}

}  // namespace triton::serve
