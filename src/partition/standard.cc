#include "partition/standard.h"

#include <algorithm>

namespace triton::partition {

PartitionRun StandardPartitioner::PartitionColumns(
    exec::Device& dev, const ColumnInput& input, const PartitionLayout& layout,
    mem::Buffer& out, const PartitionOptions& opts) {
  const RadixConfig radix = layout.radix();
  return internal::RunPartitionKernel(
      dev, input, layout, opts, kPartitionCyclesPerTuple,
      [&](exec::KernelContext& ctx, internal::BlockState& st, uint64_t begin,
          uint64_t end) -> uint64_t {
        // One warp scatters 32 tuples at a time. Lanes whose tuples fall in
        // the same partition land on consecutive cursor slots, so the
        // hardware coalescing unit merges them into one transaction — the
        // only write combining Standard gets. With high fanouts the runs
        // shrink to single tuples and every write is a 16-byte packet.
        const uint32_t warp = ctx.warp_size();
        const uint32_t fanout = radix.fanout();
        std::vector<uint32_t>& run_count =
            internal::BlockScratch<uint32_t,
                                   internal::kScratchStandardRuns>(fanout);
        std::fill_n(run_count.begin(), fanout, 0u);
        std::vector<uint32_t>& touched =
            internal::BlockScratch<uint32_t,
                                   internal::kScratchStandardTouched>(0);
        touched.clear();
        touched.reserve(warp);
        uint64_t writes = 0;
        // Each warp's tuples are fetched and hashed once; the indices feed
        // both the run-count and the scatter loop.
        Tuple batch[64];
        uint32_t pidx[64];
        CHECK_LE(warp, 64u);
        for (uint64_t i = begin; i < end; i += warp) {
          const uint64_t m = std::min(end, i + warp) - i;
          const uint32_t sim_warp = internal::SimWarpOf(i - begin, warp);
          input.GetBatch(i, m, batch);
          radix.PartitionsOf(batch, m, pidx);
          for (uint64_t j = 0; j < m; ++j) {
            if (run_count[pidx[j]]++ == 0) touched.push_back(pidx[j]);
          }
          for (uint32_t p : touched) {
            uint64_t at = st.cursors[p];
            internal::AccountFlush(ctx, *st.tlb, out, at, run_count[p], p,
                                   sim_warp);
            ++writes;
            run_count[p] = 0;
          }
          touched.clear();
          for (uint64_t j = 0; j < m; ++j) {
            ctx.Store(out, st.cursors[pidx[j]]++, batch[j]);
          }
        }
        return writes;
      });
}

}  // namespace triton::partition
