// Common interface and kernel driver for GPU radix-partitioning algorithms.
//
// A partitioner scatters the input into the row-format output buffer
// according to a PartitionLayout computed by a prior prefix-sum phase. All
// algorithms share the same block decomposition (one contiguous input chunk
// per thread block, one output slice per (partition, block)) and differ in
// how tuples are buffered and flushed — which is exactly where their
// bandwidth and TLB behaviour comes from (Sections 4.2 and 4.3).
//
// The algorithm is the variable of the first pass, which scatters the
// columnar base relations out of core (Figures 17/18), so GpuPartitioner
// is a column kernel. Later passes refine each partition in GPU memory and
// always use Shared, which alone also reads row-format input.

#ifndef TRITON_PARTITION_PARTITIONER_H_
#define TRITON_PARTITION_PARTITIONER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/device.h"
#include "mem/buffer.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "sim/block_tlb.h"
#include "util/logging.h"

namespace triton::partition {

/// SM-cycles charged per tuple by the buffering partitioners (hash, slot
/// acquisition, scratchpad store; calibrated so that partitioning becomes
/// link-bound above ~25 SMs as in Figure 24).
inline constexpr double kPartitionCyclesPerTuple = 9.0;

/// Launch options for one partitioning pass.
struct PartitionOptions {
  /// SMs allocated (0 = all).
  uint32_t sms = 0;
  /// Kernel name in the device trace.
  std::string name = "partition";
};

/// Result of one partitioning pass.
struct PartitionRun {
  exec::KernelRecord record;
  /// Total buffer flushes issued (all blocks).
  uint64_t flushes = 0;

  double Elapsed() const { return record.Elapsed(); }

  /// Tuples scattered per link write transaction (Figure 18b).
  double TuplesPerWriteTxn() const {
    return record.counters.link_write_txns == 0
               ? 0.0
               : static_cast<double>(record.counters.tuples) /
                     static_cast<double>(record.counters.link_write_txns);
  }
};

/// Abstract GPU radix partitioner.
class GpuPartitioner {
 public:
  virtual ~GpuPartitioner() = default;

  /// Algorithm name ("Standard", "Linear", "Shared", "Hierarchical").
  virtual const char* name() const = 0;

  /// Scatters columnar input (pass 1 over base relations).
  virtual PartitionRun PartitionColumns(exec::Device& dev,
                                        const ColumnInput& input,
                                        const PartitionLayout& layout,
                                        mem::Buffer& out,
                                        const PartitionOptions& opts) = 0;
};

namespace internal {

/// Per-block execution state handed to algorithm callbacks.
struct BlockState {
  uint32_t block = 0;
  /// Write cursors, one per partition, in tuple units within `out`.
  std::vector<uint64_t> cursors;
  sim::BlockTlb* tlb = nullptr;
};

/// Distinct tags for BlockScratch instantiations, one per call site, so
/// two live scratch users on the same thread can never alias.
enum ScratchTag {
  kScratchSharedTuples,
  kScratchSharedFill,
  kScratchHierTuples,
  kScratchHierL1Fill,
  kScratchHierL2Fill,
  kScratchLinearCounts,
  kScratchLinearStaged,
  kScratchLinearPidx,
  kScratchStandardRuns,
  kScratchStandardTouched,
};

/// Reusable per-worker-thread scratch vector, grown to at least `n`
/// elements. Per-block lambdas run thousands of times per kernel launch;
/// constructing their staging vectors fresh per block (a heap allocation
/// plus zero-initialization of up to a scratchpad's worth of tuples)
/// dominates host time at high fanout. Blocks execute sequentially on each
/// worker thread and never nest, so one buffer per (type, tag, thread) is
/// safe to reuse. The contents are host-side staging whose elements are
/// always written before being read (fill counters gate every read), so
/// reuse is invisible to modeled physics. Callers needing zeroed elements
/// must clear [0, n) themselves.
template <typename T, ScratchTag Tag>
inline std::vector<T>& BlockScratch(uint64_t n) {
  thread_local std::vector<T> v;
  if (v.size() < n) v.resize(n);
  return v;
}

/// Warps a simulated thread block schedules (a typical 256-thread block).
/// The kernel drivers consume the input in warp-sized batches round-robined
/// over these warps; the id feeds the sanitizer's racecheck and the
/// provenance in violation reports.
inline constexpr uint32_t kSimWarpsPerBlock = 8;

/// Simulated warp id owning the block-relative tuple `idx`.
inline uint32_t SimWarpOf(uint64_t idx, uint32_t warp_size) {
  return static_cast<uint32_t>((idx / warp_size) % kSimWarpsPerBlock);
}

/// Accounts one output flush of `count` tuples at tuple offset `at`:
/// packetizes the write and replays the block TLB once per translation
/// range the flush touches. `partition` and `warp` tag the flush site for
/// sanitizer reports. Returns nothing; counters accumulate in ctx.
inline void AccountFlush(exec::KernelContext& ctx, sim::BlockTlb& tlb,
                         const mem::Buffer& out, uint64_t at, uint64_t count,
                         int64_t partition = -1, uint32_t warp = 0) {
  ctx.SetSanitizerFlushSite(warp, partition);
  const uint64_t offset = at * sizeof(Tuple);
  const uint64_t size = count * sizeof(Tuple);
  ctx.WriteNoTlb(out, offset, size, /*random=*/true);
  tlb.AccessRun(out.base_addr() + offset, size, out.LocationOf(offset),
                &ctx.counters());
}

/// Shared kernel driver: splits the input into per-block chunks, accounts
/// the streamed input read, sets up cursors and the block TLB, and invokes
/// `per_block(ctx, state, begin, end)` for each block, which reads input
/// tuples [begin, end) and returns the number of flushes it issued.
/// `cycles_per_tuple` is charged automatically.
///
/// Blocks run concurrently on the exec::BlockExecutor pool. They share the
/// immutable input view and each get a sub-context; all shared-device
/// effects are reduced in block order by ForEachBlock.
template <typename Input, typename PerBlockFn>
PartitionRun RunPartitionKernel(exec::Device& dev, const Input& input,
                                const PartitionLayout& layout,
                                const PartitionOptions& opts,
                                double cycles_per_tuple,
                                PerBlockFn&& per_block) {
  PartitionRun run;
  exec::KernelConfig cfg;
  cfg.name = opts.name;
  cfg.sms = opts.sms == 0 ? dev.hw().gpu.num_sms : opts.sms;
  // One block per input chunk the layout's prefix sum counted.
  const uint32_t num_blocks = layout.num_blocks();

  std::vector<uint64_t> block_flushes(num_blocks, 0);
  run.record = dev.Launch(cfg, [&](exec::KernelContext& ctx) {
    const uint64_t n = input.size();
    const uint64_t chunk = (n + num_blocks - 1) / num_blocks;
    const uint32_t fanout = layout.fanout();
    ctx.ExpectTuples(n, sizeof(Tuple));
    ctx.ForEachBlock(num_blocks, [&](exec::KernelContext& sub, uint32_t b) {
      uint64_t begin = static_cast<uint64_t>(b) * chunk;
      uint64_t end = std::min(n, begin + chunk);
      if (begin >= end) return;
      sub.SetSanitizerBlock(b);
      input.AccountRead(sub, begin, end);

      sim::BlockTlb tlb(dev.hw().tlb, num_blocks, sub.escalation_sink());
      // One BlockState per worker thread: each worker runs blocks strictly
      // sequentially, so reusing the cursors vector's storage across
      // blocks saves an allocation per block; every slot is overwritten
      // below before per_block sees it.
      thread_local BlockState state;
      state.block = b;
      state.tlb = &tlb;
      state.cursors.resize(fanout);
      for (uint32_t p = 0; p < fanout; ++p) {
        state.cursors[p] = layout.SliceBegin(p, b);
      }
      block_flushes[b] = per_block(sub, state, begin, end);

      // Verify the block wrote exactly its slice sizes.
      for (uint32_t p = 0; p < fanout; ++p) {
        DCHECK_EQ(state.cursors[p],
                  layout.SliceBegin(p, b) + layout.SliceSize(p, b));
      }
    });
    ctx.AddTuples(n);
    ctx.Charge(static_cast<uint64_t>(n * cycles_per_tuple));
  });
  for (uint64_t f : block_flushes) run.flushes += f;
  return run;
}

}  // namespace internal
}  // namespace triton::partition

#endif  // TRITON_PARTITION_PARTITIONER_H_
