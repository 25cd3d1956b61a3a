#include "core/triton_pipeline.h"

#include <algorithm>
#include <vector>

#include "join/scratch_join.h"
#include "partition/hierarchical.h"
#include "partition/input.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"

namespace triton::core {

namespace {

/// SM-cycles per refined partition pair for the join task scheduler kernel
/// (calibrated against the ~9% share in the paper's Figure 15).
constexpr double kSchedCyclesPerPair = 13000.0;

}  // namespace

uint32_t PairBudgetBits(const sim::HwSpec& hw, uint64_t tuples,
                        uint32_t bits1) {
  uint64_t pair_bytes = (tuples * sizeof(partition::Tuple)) >> bits1;
  while (pair_bytes * 4 > hw.gpu_mem.capacity / 2) {
    ++bits1;
    pair_bytes /= 2;
  }
  return bits1;
}

util::StatusOr<Front> RunFront(exec::Device& dev, partition::RadixConfig radix1,
                               const std::vector<const data::Relation*>& rels,
                               const FrontOptions& opts) {
  Front front;

  // --- Prefix sums over the base relations (CPU by default) ---
  std::vector<partition::ColumnInput> columns;
  const partition::PrefixSumOptions ps1{.sms = opts.sms,
                                        .name = "prefix_sum1"};
  uint64_t state_bytes = 0;
  for (const data::Relation* relation : rels) {
    const partition::ColumnInput& col =
        columns.emplace_back(partition::ColumnInput::Of(*relation));
    Partitioned& rel = front.rels.emplace_back();
    rel.layout = opts.gpu_prefix_sum
                     ? GpuPrefixSum(dev, col, radix1, opts.sms, ps1)
                     : CpuPrefixSum(dev, col, radix1, opts.sms, ps1);
    state_bytes += rel.layout.padded_tuples() * sizeof(partition::Tuple);
  }

  // --- Cache split: pipeline working memory is reserved; the rest of the
  // budget holds partitioned state in GPU memory, spread evenly over the
  // relations via interleaved page mapping (Section 5.3) ---
  for (uint32_t p = 0; p < radix1.fanout(); ++p) {
    uint64_t pair = 0;
    for (const Partitioned& rel : front.rels) {
      pair += rel.layout.PartitionSize(p);
    }
    front.max_pair = std::max(front.max_pair, pair);
  }
  const uint64_t reserve = std::max<uint64_t>(
      opts.reserve_pairs * front.max_pair * sizeof(partition::Tuple),
      dev.hw().gpu_mem.capacity / 8);
  const uint64_t gpu_free = dev.allocator().gpu_free();
  const uint64_t cache_avail =
      std::min(gpu_free > reserve ? gpu_free - reserve : 0, opts.cache_bytes);
  const uint64_t cache_used = std::min(cache_avail, state_bytes);
  front.cached_fraction =
      state_bytes > 0 ? static_cast<double>(cache_used) / state_bytes : 0.0;
  front.spilled_bytes = state_bytes - cache_used;

  for (Partitioned& rel : front.rels) {
    const uint64_t bytes =
        rel.layout.padded_tuples() * sizeof(partition::Tuple);
    // Two relations share the cache by the cached fraction; a single one
    // takes it whole, since fraction * bytes can round below cache_used.
    const uint64_t gpu_bytes =
        front.rels.size() == 1
            ? cache_used
            : static_cast<uint64_t>(front.cached_fraction * bytes);
    auto state = dev.allocator().AllocateInterleaved(bytes, gpu_bytes);
    if (!state.ok()) return state.status();
    rel.state = std::move(state).value();
  }

  // --- First pass: GPU-partition every relation out of core ---
  partition::HierarchicalPartitioner default_pass1;
  partition::GpuPartitioner* pass1 =
      opts.pass1 != nullptr ? opts.pass1 : &default_pass1;
  partition::PartitionOptions p1{.sms = opts.sms};
  for (size_t i = 0; i < rels.size(); ++i) {
    p1.name = rels.size() == 1 ? "partition1"
              : i == 0         ? "partition1_r"
                               : "partition1_s";
    pass1->PartitionColumns(dev, columns[i], front.rels[i].layout,
                            front.rels[i].state, p1);
  }
  return front;
}

util::StatusOr<mem::Buffer> AllocateStaging(exec::Device& dev,
                                            const Front& front,
                                            uint32_t slots) {
  if (front.spilled_bytes == 0) return mem::Buffer();
  return dev.allocator().AllocateGpu(
      static_cast<uint64_t>(slots) * std::max<uint64_t>(front.max_pair, 1) *
      sizeof(partition::Tuple));
}

void Lanes::Add(const sim::KernelTime& t) {
  bw += std::max({t.link, t.tlb, t.cpu_mem});
  comp += std::max(t.compute, t.gpu_mem);
  serial += t.Elapsed();
}

util::Status JoinPair(exec::Device& dev, const Front& front, uint32_t p,
                      const PairBody& body, uint64_t stage_offset,
                      JoinTotals* totals, Lanes* lanes) {
  const Partitioned& r1 = front.rels[0];
  const Partitioned& s1 = front.rels[1];
  const uint64_t r_n = r1.layout.PartitionSize(p);
  const uint64_t s_n = s1.layout.PartitionSize(p);
  if (r_n == 0 || s_n == 0) return util::Status::OK();
  const size_t trace_mark = dev.trace().size();
  const partition::RadixConfig radix2 = body.radix2;
  mem::Buffer* staging = body.staging;

  // Second-pass prefix sums run on the GPU over the pair's pass-1 slices;
  // with spilled state they double as the copy-in of the pair, so pass 2
  // reads the staged copy in GPU memory instead of re-crossing the link
  // (Section 6.2.3). Returns the view pass 2 reads.
  auto prefix_and_stage =
      [&](const Partitioned& rel, uint64_t stage_at,
          partition::PartitionLayout& layout) -> partition::RowInput {
    const partition::RowInput rows =
        partition::PartitionInputOf(rel.state, rel.layout, p);
    const uint64_t n = rows.size();
    dev.Launch(
        {.name = "prefix_sum2", .sms = body.sms},
        [&](exec::KernelContext& ctx) {
          // The scan and copy-in accounting stays on the launch context
          // (one read and one write pass over the pair: per-block calls
          // would split the runs at block boundaries); each block
          // histograms its chunk and copies it into the staging slot.
          rows.AccountRead(ctx, 0, n);
          const uint32_t blocks = body.sms;
          const uint64_t chunk = (n + blocks - 1) / blocks;
          std::vector<std::vector<uint64_t>> histograms(
              blocks, std::vector<uint64_t>(radix2.fanout(), 0));
          ctx.ForEachBlock(blocks, [&](exec::KernelContext& sub, uint32_t b) {
            uint64_t begin = static_cast<uint64_t>(b) * chunk;
            uint64_t end = std::min(n, begin + chunk);
            if (begin >= end) return;
            sub.SetSanitizerBlock(b);
            partition::ComputeBlockHistogram(rows, radix2, begin, end,
                                             histograms[b]);
            if (staging == nullptr) return;
            partition::Tuple batch[partition::kBatchTuples];
            for (uint64_t base = begin; base < end;
                 base += partition::kBatchTuples) {
              const uint64_t m =
                  std::min<uint64_t>(end - base, partition::kBatchTuples);
              rows.GetBatch(base, m, batch);
              sub.StoreRun(*staging, stage_at + base, batch, m);
            }
          });
          layout = partition::PartitionLayout(radix2, histograms);
          ctx.AddTuples(n);
          ctx.Charge(
              static_cast<uint64_t>(n * partition::kPrefixSumCyclesPerTuple));
          if (staging == nullptr) return;
          ctx.WriteSeq(*staging, stage_at * sizeof(partition::Tuple),
                       n * sizeof(partition::Tuple));
        });
    return staging == nullptr ? rows
                              : partition::RowInput(staging, stage_at, n);
  };
  partition::PartitionLayout r_layout2, s_layout2;
  const partition::RowInput r_rows =
      prefix_and_stage(r1, stage_offset, r_layout2);
  const partition::RowInput s_rows =
      prefix_and_stage(s1, stage_offset + r_n, s_layout2);

  auto r2 = dev.allocator().AllocateGpu(r_layout2.padded_tuples() *
                                        sizeof(partition::Tuple));
  if (!r2.ok()) return r2.status();
  auto s2 = dev.allocator().AllocateGpu(s_layout2.padded_tuples() *
                                        sizeof(partition::Tuple));
  if (!s2.ok()) return s2.status();

  partition::SharedPartitioner pass2;
  const partition::PartitionOptions p2{.sms = body.sms, .name = "partition2"};
  pass2.PartitionRows(dev, r_rows, r_layout2, *r2, p2);
  pass2.PartitionRows(dev, s_rows, s_layout2, *s2, p2);

  // Join task scheduler: assigns refined pairs to thread blocks.
  dev.Launch({.name = "sched", .sms = body.sms},
             [&](exec::KernelContext& ctx) {
               ctx.Charge(static_cast<uint64_t>(kSchedCyclesPerPair *
                                                radix2.fanout()));
             });

  util::Status st = join::JoinRefinedPairs(
      dev, body.sms, body.scheme, *r2, r_layout2, *s2, s_layout2, body.result,
      &totals->result_cursor, &totals->matches, &totals->checksum);
  if (!st.ok()) return st;

  for (size_t k = trace_mark; k < dev.trace().size(); ++k) {
    lanes->Add(dev.trace()[k].time);
  }
  return util::Status::OK();
}

}  // namespace triton::core
