#include "partition/shared.h"

#include <algorithm>
#include <vector>

#include "sanitizer/sanitizer.h"

namespace triton::partition {

uint32_t SwwcBufferTuples(uint64_t scratchpad_bytes, uint32_t fanout) {
  uint64_t cap = scratchpad_bytes / (static_cast<uint64_t>(fanout) *
                                     sizeof(Tuple));
  if (cap >= 8) cap -= cap % 8;  // whole 128-byte transactions
  if (cap == 0) cap = 1;
  return static_cast<uint32_t>(cap);
}

namespace {

/// Extra issue-slot cost of one flush. Flushing occupies the warp even
/// when the buffer holds fewer than 32 tuples, which is why compute
/// utilization climbs at very high fanouts (Figure 18e).
constexpr double kFlushCycles = 8.0;

}  // namespace

template <typename Input>
PartitionRun SharedPartitioner::Run(exec::Device& dev, const Input& input,
                                    const PartitionLayout& layout,
                                    mem::Buffer& out,
                                    const PartitionOptions& opts) {
  const RadixConfig radix = layout.radix();
  const uint32_t fanout = radix.fanout();
  const uint32_t cap = SwwcBufferTuples(dev.hw().gpu.scratchpad_bytes, fanout);

  return internal::RunPartitionKernel(
      dev, input, layout, opts, kPartitionCyclesPerTuple,
      [&](exec::KernelContext& ctx, internal::BlockState& st, uint64_t begin,
          uint64_t end) -> uint64_t {
        // Block-shared scratchpad buffers: one per partition, `cap` tuples.
        const uint64_t buf_tuples = static_cast<uint64_t>(fanout) * cap;
        std::vector<Tuple>& buffers =
            internal::BlockScratch<Tuple, internal::kScratchSharedTuples>(
                buf_tuples);
        std::vector<uint32_t>& fill =
            internal::BlockScratch<uint32_t, internal::kScratchSharedFill>(
                fanout);
        std::fill_n(fill.begin(), fanout, 0u);
        sanitizer::ScratchpadShadow shadow(ctx.sanitizer(),
                                           buf_tuples * sizeof(Tuple),
                                           ctx.scratchpad_bytes());
        uint64_t flushes = 0;

        // Flush phase (Figure 8): the leader warp takes the buffer lock,
        // drains the buffer to the partition cursor and marks the buffer
        // empty before releasing.
        auto flush = [&](uint32_t p, uint32_t count, uint32_t warp) {
          shadow.AcquireLock(p, warp);
          shadow.NoteFlush(p, warp);
          const uint64_t buf_off = static_cast<uint64_t>(p) * cap *
                                   sizeof(Tuple);
          shadow.Load(buf_off, static_cast<uint64_t>(count) * sizeof(Tuple),
                      warp);
          uint64_t at = st.cursors[p];
          ctx.StoreRun(out, at, &buffers[static_cast<uint64_t>(p) * cap],
                       count);
          internal::AccountFlush(ctx, *st.tlb, out, at, count, p, warp);
          ctx.Charge(static_cast<uint64_t>(kFlushCycles));
          st.cursors[p] = at + count;
          fill[p] = 0;
          shadow.SyncRange(buf_off, static_cast<uint64_t>(cap) * sizeof(Tuple));
          shadow.ReleaseLock(p, warp);
          ++flushes;
        };

        // Fill phase: every thread hashes its tuple and acquires a buffer
        // slot; a thread hitting a full buffer triggers the flush phase for
        // that buffer (Figure 8's steps, warp-synchronous). Tuples arrive
        // a tile at a time with their partition indices computed in one
        // vectorizable pass; flush triggers and warp provenance depend only
        // on a tuple's position in the block's chunk. The per-tuple shadow
        // stores run only when the sanitizer is on.
        const uint32_t ws = ctx.warp_size();
        const bool shadow_on = ctx.sanitizer() != nullptr;
        Tuple batch[kBatchTuples];
        uint32_t pidx[kBatchTuples];
        for (uint64_t base = begin; base < end; base += kBatchTuples) {
          const uint64_t m = std::min<uint64_t>(end - base, kBatchTuples);
          input.GetBatch(base, m, batch);
          radix.PartitionsOf(batch, m, pidx);
          for (uint64_t j = 0; j < m; ++j) {
            const uint32_t p = pidx[j];
            if (fill[p] == cap) {
              flush(p, cap, internal::SimWarpOf(base + j - begin, ws));
            }
            if (shadow_on) {
              shadow.Store((static_cast<uint64_t>(p) * cap + fill[p]) *
                               sizeof(Tuple),
                           sizeof(Tuple),
                           internal::SimWarpOf(base + j - begin, ws));
            }
            buffers[static_cast<uint64_t>(p) * cap + fill[p]++] = batch[j];
          }
        }
        // End of input: the leader warp drains the partially filled buffers.
        for (uint32_t p = 0; p < fanout; ++p) {
          if (fill[p] > 0) flush(p, fill[p], 0);
        }
        return flushes;
      });
}

PartitionRun SharedPartitioner::PartitionColumns(exec::Device& dev,
                                                 const ColumnInput& input,
                                                 const PartitionLayout& layout,
                                                 mem::Buffer& out,
                                                 const PartitionOptions& opts) {
  return Run(dev, input, layout, out, opts);
}

PartitionRun SharedPartitioner::PartitionRows(exec::Device& dev,
                                              const RowInput& input,
                                              const PartitionLayout& layout,
                                              mem::Buffer& out,
                                              const PartitionOptions& opts) {
  return Run(dev, input, layout, out, opts);
}

}  // namespace triton::partition
