#include "partition/linear.h"

#include <algorithm>
#include <vector>

#include "sanitizer/sanitizer.h"

namespace triton::partition {

namespace {

/// Extra per-tuple issue cost of the scratchpad sort: histogram, linear
/// allocator and reorder are additional scratchpad passes, and the
/// allocator's atomics serialize warps (the paper's Figure 18f shows
/// Linear stalling on synchronization and pipe-busy, unlike Shared).
constexpr double kLinearExtraCyclesPerTuple = 30.0;

}  // namespace

PartitionRun LinearPartitioner::PartitionColumns(
    exec::Device& dev, const ColumnInput& input, const PartitionLayout& layout,
    mem::Buffer& out, const PartitionOptions& opts) {
  const RadixConfig radix = layout.radix();
  const uint32_t fanout = radix.fanout();
  // The whole scratchpad holds one batch.
  const uint32_t batch_tuples = static_cast<uint32_t>(
      dev.hw().gpu.scratchpad_bytes / sizeof(Tuple));

  return internal::RunPartitionKernel(
      dev, input, layout, opts,
      kPartitionCyclesPerTuple + kLinearExtraCyclesPerTuple,
      [&](exec::KernelContext& ctx, internal::BlockState& st, uint64_t begin,
          uint64_t end) -> uint64_t {
        std::vector<uint32_t>& counts =
            internal::BlockScratch<uint32_t, internal::kScratchLinearCounts>(
                fanout);
        sanitizer::ScratchpadShadow shadow(
            ctx.sanitizer(),
            static_cast<uint64_t>(batch_tuples) * sizeof(Tuple),
            ctx.scratchpad_bytes());
        uint64_t flushes = 0;
        // Each scratchpad batch is fetched and hashed once into these
        // per-block staging arrays; the indices feed both the count and
        // the scatter loop.
        const bool shadow_on = ctx.sanitizer() != nullptr;
        Tuple* staged =
            internal::BlockScratch<Tuple, internal::kScratchLinearStaged>(
                batch_tuples)
                .data();
        uint32_t* pidx =
            internal::BlockScratch<uint32_t, internal::kScratchLinearPidx>(
                batch_tuples)
                .data();
        for (uint64_t base = begin; base < end; base += batch_tuples) {
          const uint64_t m = std::min(end, base + batch_tuples) - base;
          // Sort the batch by partition inside the scratchpad (functional
          // equivalent: per-partition run counting; the reorder itself is
          // scratchpad-local and charged via the cycle constant). Each
          // tuple is staged once into the arena by its owning warp.
          std::fill_n(counts.begin(), fanout, 0u);
          input.GetBatch(base, m, staged);
          radix.PartitionsOf(staged, m, pidx);
          for (uint64_t i = 0; i < m; ++i) {
            ++counts[pidx[i]];
            if (shadow_on) {
              shadow.Store(i * sizeof(Tuple), sizeof(Tuple),
                           internal::SimWarpOf(i, ctx.warp_size()));
            }
          }
          // Flush each partition's run to its cursor. Run lengths are
          // data-dependent and cursors are not re-aligned, so coalescing is
          // only opportunistic.
          for (uint32_t p = 0; p < fanout; ++p) {
            if (counts[p] == 0) continue;
            internal::AccountFlush(ctx, *st.tlb, out, st.cursors[p],
                                   counts[p], p, /*warp=*/0);
            ++flushes;
          }
          // Functional scatter (stable within the batch); the flush is a
          // block-wide synchronization point, after which the arena is
          // reusable for the next batch.
          shadow.Load(0, m * sizeof(Tuple), /*warp=*/0);
          for (uint64_t i = 0; i < m; ++i) {
            ctx.Store(out, st.cursors[pidx[i]]++, staged[i]);
          }
          shadow.SyncRange(0,
                           static_cast<uint64_t>(batch_tuples) *
                               sizeof(Tuple));
        }
        return flushes;
      });
}

}  // namespace triton::partition
