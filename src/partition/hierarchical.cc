#include "partition/hierarchical.h"

#include <algorithm>
#include <vector>

#include "partition/shared.h"
#include "sanitizer/sanitizer.h"
#include "util/bits.h"

namespace triton::partition {

namespace {

constexpr double kFlushCycles = 8.0;

/// GPU memory for L2 buffers: half the memory free at launch. The Triton
/// join leaves the rest to the cache and the second pass.
uint64_t L2Budget(uint64_t gpu_free) { return gpu_free / 2; }

/// Per-(block, partition) L2 buffer capacity in tuples, within
/// [8, 4096] (64 KiB).
uint32_t L2BufferTuples(uint64_t gpu_free, uint32_t num_blocks,
                        uint32_t fanout) {
  constexpr uint64_t kMinL2Tuples = 8, kMaxL2Tuples = 4096;
  uint64_t per_buffer = L2Budget(gpu_free) /
                        (static_cast<uint64_t>(num_blocks) * fanout *
                         sizeof(Tuple));
  if (per_buffer >= 8) per_buffer -= per_buffer % 8;
  per_buffer = std::clamp(per_buffer, kMinL2Tuples, kMaxL2Tuples);
  return static_cast<uint32_t>(per_buffer);
}

}  // namespace

uint32_t HierarchicalRecommendedBlocks(const sim::HwSpec& hw,
                                       uint64_t gpu_free, uint32_t fanout) {
  const uint64_t budget = L2Budget(gpu_free);
  // Each block wants >= 256-tuple (4 KiB) L2 buffers per partition.
  uint64_t per_block = static_cast<uint64_t>(fanout) * 256 * sizeof(Tuple);
  uint64_t blocks = per_block > 0 ? budget / per_block : hw.gpu.num_sms;
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(blocks, 1, hw.gpu.num_sms));
}

PartitionRun HierarchicalPartitioner::PartitionColumns(
    exec::Device& dev, const ColumnInput& input, const PartitionLayout& layout,
    mem::Buffer& out, const PartitionOptions& opts) {
  const RadixConfig radix = layout.radix();
  const uint32_t fanout = radix.fanout();
  const uint32_t l1_cap =
      SwwcBufferTuples(dev.hw().gpu.scratchpad_bytes, fanout);
  const uint32_t num_blocks = layout.num_blocks();
  const uint32_t l2_cap = std::max(
      2 * l1_cap, L2BufferTuples(dev.allocator().gpu_free(), num_blocks,
                                 fanout));

  // L2 buffers live in GPU memory; allocate (and account) them for real so
  // capacity pressure on the GPU is honest. One buffer per (block,
  // partition), matching the physical layout — blocks run concurrently on
  // the executor, so each needs its own slice of the staging storage.
  uint64_t l2_bytes = static_cast<uint64_t>(num_blocks) * fanout * l2_cap *
                      sizeof(Tuple);
  auto l2_storage = dev.allocator().AllocateGpu(std::max<uint64_t>(
      l2_bytes, 1));
  // If GPU memory is too tight for the L2 buffers, degrade to Shared
  // behaviour (l2 == l1 eviction is a plain flush).
  const bool have_l2 = l2_storage.ok();

  PartitionRun run = internal::RunPartitionKernel(
      dev, input, layout, opts, kPartitionCyclesPerTuple,
      [&](exec::KernelContext& ctx, internal::BlockState& st, uint64_t begin,
          uint64_t end) -> uint64_t {
        const uint64_t l1_tuples = static_cast<uint64_t>(fanout) * l1_cap;
        std::vector<Tuple>& l1 =
            internal::BlockScratch<Tuple, internal::kScratchHierTuples>(
                l1_tuples);
        std::vector<uint32_t>& l1_fill =
            internal::BlockScratch<uint32_t, internal::kScratchHierL1Fill>(
                fanout);
        std::vector<uint32_t>& l2_fill =
            internal::BlockScratch<uint32_t, internal::kScratchHierL2Fill>(
                fanout);
        std::fill_n(l1_fill.begin(), fanout, 0u);
        std::fill_n(l2_fill.begin(), fanout, 0u);
        // This block's slice of the (block, partition)-major L2 staging
        // storage, in tuples.
        const uint64_t l2_base =
            static_cast<uint64_t>(st.block) * fanout * l2_cap;
        // L1 buffer locks use ids [0, fanout); the L2 buffers in GPU memory
        // are guarded by lock ids [fanout, 2 * fanout).
        sanitizer::ScratchpadShadow shadow(ctx.sanitizer(),
                                           l1_tuples * sizeof(Tuple),
                                           ctx.scratchpad_bytes());
        uint64_t flushes = 0;

        // L2 flush: one large, aligned write to the output (asynchronous on
        // the real GPU thanks to the spare-buffer swap; the swap itself is
        // a pointer update inside the critical section). The staged tuples
        // live in the real l2_storage buffer, so the sanitizer audits the
        // read-back against the accounted GPU-memory traffic.
        auto flush_l2 = [&](uint32_t p, uint32_t count, uint32_t warp) {
          shadow.AcquireLock(fanout + p, warp);
          shadow.NoteFlush(fanout + p, warp);
          uint64_t at = st.cursors[p];
          ctx.StoreRun(out, at,
                       l2_storage->as<Tuple>() + l2_base +
                           static_cast<uint64_t>(p) * l2_cap,
                       count);
          // Reading the staged tuples back out of GPU memory.
          ctx.ReadNoTlb(*l2_storage,
                        (l2_base + static_cast<uint64_t>(p) * l2_cap) *
                            sizeof(Tuple),
                        static_cast<uint64_t>(count) * sizeof(Tuple),
                        /*random=*/false);
          internal::AccountFlush(ctx, *st.tlb, out, at, count, p, warp);
          ctx.Charge(static_cast<uint64_t>(kFlushCycles));
          st.cursors[p] = at + count;
          l2_fill[p] = 0;
          shadow.ReleaseLock(fanout + p, warp);
          ++flushes;
        };

        // L1 eviction: append the full scratchpad buffer to the partition's
        // L2 buffer in GPU memory.
        auto evict_l1 = [&](uint32_t p, uint32_t count, uint32_t warp) {
          shadow.AcquireLock(p, warp);
          shadow.NoteFlush(p, warp);
          const uint64_t l1_off = static_cast<uint64_t>(p) * l1_cap *
                                  sizeof(Tuple);
          shadow.Load(l1_off, static_cast<uint64_t>(count) * sizeof(Tuple),
                      warp);
          if (!have_l2) {
            // Degraded mode: flush L1 straight to the output.
            uint64_t at = st.cursors[p];
            ctx.StoreRun(out, at, &l1[static_cast<uint64_t>(p) * l1_cap],
                         count);
            internal::AccountFlush(ctx, *st.tlb, out, at, count, p, warp);
            ctx.Charge(static_cast<uint64_t>(kFlushCycles));
            st.cursors[p] = at + count;
            ++flushes;
          } else {
            if (l2_fill[p] + count > l2_cap) flush_l2(p, l2_fill[p], warp);
            shadow.AcquireLock(fanout + p, warp);
            ctx.StoreRun(*l2_storage,
                         l2_base + static_cast<uint64_t>(p) * l2_cap +
                             l2_fill[p],
                         &l1[static_cast<uint64_t>(p) * l1_cap], count);
            ctx.WriteNoTlb(*l2_storage,
                           (l2_base + static_cast<uint64_t>(p) * l2_cap +
                            l2_fill[p]) *
                               sizeof(Tuple),
                           static_cast<uint64_t>(count) * sizeof(Tuple),
                           /*random=*/false);
            l2_fill[p] += count;
            shadow.ReleaseLock(fanout + p, warp);
          }
          l1_fill[p] = 0;
          shadow.SyncRange(l1_off,
                           static_cast<uint64_t>(l1_cap) * sizeof(Tuple));
          shadow.ReleaseLock(p, warp);
        };

        // Fill phase, tile by tile as in SharedPartitioner.
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
            if (l1_fill[p] == l1_cap) {
              evict_l1(p, l1_cap, internal::SimWarpOf(base + j - begin, ws));
            }
            if (shadow_on) {
              shadow.Store((static_cast<uint64_t>(p) * l1_cap + l1_fill[p]) *
                               sizeof(Tuple),
                           sizeof(Tuple),
                           internal::SimWarpOf(base + j - begin, ws));
            }
            l1[static_cast<uint64_t>(p) * l1_cap + l1_fill[p]++] = batch[j];
          }
        }
        // Drain both levels at end of input (leader warp 0).
        for (uint32_t p = 0; p < fanout; ++p) {
          if (l1_fill[p] > 0) evict_l1(p, l1_fill[p], 0);
          if (have_l2 && l2_fill[p] > 0) flush_l2(p, l2_fill[p], 0);
        }
        return flushes;
      });
  if (l2_storage.ok()) dev.allocator().Free(*l2_storage);
  return run;
}

}  // namespace triton::partition
