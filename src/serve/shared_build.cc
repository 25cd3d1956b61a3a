#include "serve/shared_build.h"

#include <algorithm>
#include <utility>

#include "data/generator.h"
#include "join/no_partitioning_join.h"
#include "util/random.h"

namespace triton::serve {

util::StatusOr<std::unique_ptr<SharedBuild>> SharedBuild::Create(
    const sim::HwSpec& hw, MemoryArbiter& arbiter, const Config& config) {
  if (config.tuples == 0) {
    return util::Status::InvalidArgument("shared build needs tuples > 0");
  }
  const uint64_t page = hw.tlb.page_bytes;
  const uint64_t table_bytes =
      join::NpjTableBytes(join::HashScheme::kPerfect, config.tuples);
  const uint64_t build_bytes = KeyPayloadColumnsBytes(config.tuples, page);
  // CPU-memory headroom for the per-batch probe staging.
  const uint64_t staging = hw.cpu_mem.capacity / 8;

  // The table wants GPU residency but spills to interleaved placement when
  // the GPU carve cannot hold it, exactly like the NPJ's cache budget.
  ResourceRequest req;
  req.gpu_bytes = std::min(table_bytes + page, hw.gpu_mem.capacity / 2);
  req.cpu_bytes = table_bytes + build_bytes + staging;
  auto res = arbiter.Reserve(req);
  if (!res.ok()) return res.status();

  auto sb = std::unique_ptr<SharedBuild>(new SharedBuild());
  sb->config_ = config;
  sb->reservation_ = std::move(res).value();
  sb->device_ =
      std::make_unique<exec::Device>(arbiter.CarvedSpec(sb->reservation_));
  exec::Device& dev = *sb->device_;

  auto rel = data::Relation::AllocateCpu(dev.allocator(), config.tuples);
  if (!rel.ok()) return rel.status();
  sb->build_ = std::move(rel).value();
  data::FillPrimaryKeys(sb->build_, config.seed);
  data::FillPayloads(sb->build_, config.seed ^ 0x9e3779b97f4a7c15ULL);

  // No result is materialized, so the whole free GPU carve may hold the
  // table.
  auto table = join::NpjTable::Build(
      dev, sb->build_,
      {.scheme = join::HashScheme::kPerfect,
       .result_mode = join::ResultMode::kAggregate});
  if (!table.ok()) return table.status();
  sb->table_ = std::move(table).value();
  return sb;
}

util::StatusOr<BatchRun> SharedBuild::RunBatch(
    const std::vector<ProbeSpec>& specs) {
  if (specs.empty()) {
    return util::Status::InvalidArgument("empty probe batch");
  }
  uint64_t total = 0;
  std::vector<uint64_t> ends;
  ends.reserve(specs.size());
  for (const ProbeSpec& s : specs) {
    if (s.tuples > UINT64_MAX / sizeof(data::Key) - total) {
      return util::Status::InvalidArgument("probe batch byte size overflows");
    }
    total += s.tuples;
    ends.push_back(total);
  }
  if (total == 0) {
    return util::Status::InvalidArgument("probe batch with 0 tuples");
  }

  exec::Device& dev = *device_;
  // Stage the batch inside an arena: simulated addresses (and therefore
  // TLB physics) restart from the same base for every batch. The staged
  // relation is freed when the lambda returns, before the arena closes.
  const uint64_t arena = dev.allocator().BeginArena();
  auto run = [&]() -> util::StatusOr<BatchRun> {
    auto probe = data::Relation::AllocateCpu(dev.allocator(), total);
    if (!probe.ok()) return probe.status();
    // Each request's keys come from its own seed, so its functional result
    // is identical whichever batch it lands in.
    data::Key* k = probe->keys();
    data::Value* v = probe->payload(0);
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
    dev.ClearTrace();
    auto results = table_.Probe(dev, *probe, ends, /*result=*/nullptr);
    if (!results.ok()) return results.status();
    BatchRun batch;
    batch.results = std::move(results).value();
    batch.elapsed = dev.trace().back().Elapsed();
    batch.counters = dev.trace().back().counters;
    return batch;
  }();
  TRITON_RETURN_IF_ERROR(dev.allocator().EndArena(arena));
  return run;
}

}  // namespace triton::serve
