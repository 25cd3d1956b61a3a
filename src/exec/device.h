// Simulated GPU device and kernel-execution context.
//
// Kernels in this codebase are ordinary C++ callables that receive a
// KernelContext. They perform real work on host memory (so their outputs
// are functionally correct) and report their memory traffic to the context,
// which packetizes interconnect accesses, replays addresses through the TLB
// simulator, and accumulates PerfCounters. Device::Launch wraps one kernel
// execution: it flushes the GPU TLB (the CUDA runtime does this on every
// launch), runs the kernel, evaluates the cost model, and appends a
// KernelRecord to the device trace used by the time-breakdown figures.
//
// Execution model: kernels decompose into thread blocks and run them
// through KernelContext::ForEachBlock, which executes blocks on the
// process-wide exec::BlockExecutor worker pool. Each block receives a
// private sub-context that shards the counters, defers every shared-TLB
// access into one replay log per TLB shard (sim::TlbSimulator), and forks
// the sanitizer's shadow state. Blocks never touch the shared TLB or
// sanitizer. One replay lane per TLB shard replays that shard's logs of
// the finished blocks in block order, on whichever pool thread is free,
// while later blocks still run; the shards own disjoint TLB state, so the
// lanes run concurrently. (Lanes pay off only for heavy replay: in a
// launch's first batch, and after a batch with few L2 TLB misses per
// block, the reduction replays instead.) The
// launching thread then reduces each block in block order: it merges the
// counter shard, adds the block's random-access latencies in issue order
// and merges its sanitizer state. Results,
// counters, latency sums and violation provenance are therefore
// bit-identical for any thread count (one thread replays and reduces each
// block right after it runs). A kernel whose functional result depends on
// order runs that part serially, as the batch's task alongside the blocks
// (the no-partitioning join's insert), and accounts in order-free blocks.
// The allocator and the trace must not be used inside a block or a task.

#ifndef TRITON_EXEC_DEVICE_H_
#define TRITON_EXEC_DEVICE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/allocator.h"
#include "mem/buffer.h"
#include "sanitizer/sanitizer.h"
#include "sim/cost_model.h"
#include "sim/hw_spec.h"
#include "sim/packetizer.h"
#include "sim/perf_counters.h"
#include "sim/tlb.h"

namespace triton::exec {

class Device;

/// Launch-time parameters of one kernel.
struct KernelConfig {
  /// Kernel name for traces and time breakdowns ("part1", "join", ...).
  std::string name;
  /// Streaming multiprocessors allocated to this kernel (0 = all). The
  /// Triton join gives each pipeline stage half the SMs (Section 5.2).
  uint32_t sms = 0;
  /// Resident warps per SM this kernel sustains; bounds memory-level
  /// parallelism in the cost model. Pointer-chase microbenchmarks use 1.
  uint32_t occupancy_warps_per_sm = 64;
  /// If true, the kernel's random accesses are latency-bound rather than
  /// pipelined (single dependent chain per warp).
  bool latency_bound = false;
};

/// Result of one kernel launch.
struct KernelRecord {
  std::string name;
  sim::PerfCounters counters;
  sim::KernelTime time;
  uint32_t sms = 0;

  double Elapsed() const { return time.Elapsed(); }
};

/// Access-accounting interface handed to kernels.
///
/// The functional data accesses happen through raw pointers; kernels call
/// these methods to account the corresponding simulated traffic. Sequential
/// bulk traffic should use the *Seq methods (O(pages) accounting); per-tuple
/// random accesses use the *Rand methods (one TLB replay each).
class KernelContext : private sim::TlbEscalationSink {
 public:
  KernelContext(Device* device, const KernelConfig& config);

  // --- Parallel block execution ---

  /// Runs body(sub, b) for every block b in [0, num_blocks) on the global
  /// exec::BlockExecutor, in any order on any thread. Each block gets a
  /// private sub-context (sharded counters, deferred shared-TLB logs,
  /// forked sanitizer state). Replay lanes replay the logs shard by shard
  /// in block order, and the calling thread reduces the sub-contexts into
  /// this context strictly in block order, while later blocks still run;
  /// so counters, latency sums and sanitizer provenance are bit-identical
  /// to serial execution for any thread count. The body must route all
  /// accounting through its sub-context and must not touch the Device's
  /// allocator, trace, shared TLB or sanitizer. A non-empty `task` runs
  /// once alongside the blocks, outside the block order, usually on a pool
  /// worker (see exec::BlockExecutor::Run); it accounts nothing.
  void ForEachBlock(uint32_t num_blocks,
                    const std::function<void(KernelContext&, uint32_t)>& body,
                    const std::function<void()>& task = {});

  /// Escalation target for block-local TLBs (sim::BlockTlb): inside a
  /// ForEachBlock sub-context this logs the miss for ordered replay; on a
  /// top-level context it is the shared device TLB.
  sim::TlbEscalationSink* escalation_sink();

  // --- Sequential (streamed, perfectly coalesced) traffic ---

  /// Accounts a sequential read of [offset, offset+size) from `buf`.
  void ReadSeq(const mem::Buffer& buf, uint64_t offset, uint64_t size) {
    AccessSeq(buf, offset, size, /*is_write=*/false);
  }
  /// Accounts a sequential write.
  void WriteSeq(const mem::Buffer& buf, uint64_t offset, uint64_t size) {
    AccessSeq(buf, offset, size, /*is_write=*/true);
  }

  // --- Random (per-access) traffic ---

  /// Accounts one random read of `size` bytes at `offset`; the access is
  /// coalesced exactly as issued (size and alignment matter: Figure 6).
  void ReadRand(const mem::Buffer& buf, uint64_t offset, uint64_t size);
  /// Accounts one random write.
  void WriteRand(const mem::Buffer& buf, uint64_t offset, uint64_t size);

  /// Accounts a buffer flush: `size` bytes written contiguously at
  /// `offset`. Flushes of a multiple of the transaction size with matching
  /// alignment achieve perfect coalescing; others split (Figure 18b).
  /// Unlike WriteRand, the device TLB is replayed once per translation
  /// range the flush touches, so partial tail flushes and flushes that
  /// straddle a range boundary are accounted with their true size and
  /// alignment.
  void Flush(const mem::Buffer& buf, uint64_t offset, uint64_t size);

  // --- Traffic with caller-managed translation ---
  // Partitioning kernels model the per-SM L1 TLB / shared-L2-slice
  // hierarchy themselves (sim::BlockTlb); these variants account packets
  // and bytes only, leaving TLB replay to the caller.

  /// Accounts a write without TLB replay. `random` selects per-access
  /// packetization (true) vs bulk (false).
  void WriteNoTlb(const mem::Buffer& buf, uint64_t offset, uint64_t size,
                  bool random) {
    Account(buf.base_addr() + offset, size, buf.LocationOf(offset),
            /*is_write=*/true, random, /*replay_tlb=*/false);
  }

  /// Accounts a read without TLB replay.
  void ReadNoTlb(const mem::Buffer& buf, uint64_t offset, uint64_t size,
                 bool random) {
    Account(buf.base_addr() + offset, size, buf.LocationOf(offset),
            /*is_write=*/false, random, /*replay_tlb=*/false);
  }

  // --- Checked functional access (DeviceSanitizer) ---
  //
  // Kernels that want their functional stores audited against their
  // accounted traffic go through these instead of raw pointers; with the
  // sanitizer disabled they compile down to the raw access. The raw-pointer
  // path remains available for benches.

  /// Stores `value` at element `index` of `buf` viewed as a T array and
  /// records the write in the sanitizer's shadow map.
  template <typename T>
  void Store(mem::Buffer& buf, uint64_t index, const T& value) {
    const uint64_t offset = index * sizeof(T);
    DCHECK_LE(offset + sizeof(T), buf.size());
    *reinterpret_cast<T*>(buf.data() + offset) = value;
    if (san_ != nullptr) {
      san_->RecordFunctionalWrite(buf.base_addr() + offset, sizeof(T));
    }
  }

  /// Bulk Store: copies `count` elements from `src` into `buf` starting at
  /// element `index` and records the whole run in the sanitizer's shadow
  /// log in one shot. Coverage is checked on the union of the logged
  /// intervals, so one run record is identical to `count` per-element
  /// records. The partitioners' flushes, the staging copy-in and the join
  /// result writes all store through it.
  template <typename T>
  void StoreRun(mem::Buffer& buf, uint64_t index, const T* src,
                uint64_t count) {
    if (count == 0) return;
    const uint64_t offset = index * sizeof(T);
    const uint64_t size = count * sizeof(T);
    DCHECK_LE(offset + size, buf.size());
    std::memcpy(buf.data() + offset, src, size);
    if (san_ != nullptr) {
      san_->RecordFunctionalWrite(buf.base_addr() + offset, size);
    }
  }

  /// The device's sanitizer, or null when checking is disabled. Kernels
  /// hand it to sanitizer::ScratchpadShadow (which accepts null).
  sanitizer::DeviceSanitizer* sanitizer() { return san_; }

  /// Sets the thread-block provenance for sanitizer reports.
  void SetSanitizerBlock(uint32_t block) {
    if (san_ != nullptr) san_->set_block(block);
  }

  /// Sets the warp/partition provenance for sanitizer reports (call before
  /// accounting a flush so violations carry the flush site).
  void SetSanitizerFlushSite(uint32_t warp, int64_t partition) {
    if (san_ != nullptr) {
      san_->set_warp(warp);
      san_->set_partition(partition);
    }
  }

  /// Declares the launch's input size and minimum bytes-per-tuple for the
  /// sanitizer's counter lint.
  void ExpectTuples(uint64_t tuples, uint64_t min_bytes_per_tuple) {
    if (san_ != nullptr) san_->ExpectTuples(tuples, min_bytes_per_tuple);
  }

  // --- Execution accounting ---

  /// Charges `n` warp-instruction issue slots.
  void Charge(uint64_t n) { counters_.issue_slots += n; }

  /// Marks `n` tuples as processed by this kernel.
  void AddTuples(uint64_t n) { counters_.tuples += n; }

  /// Scratchpad capacity available to one thread block.
  uint64_t scratchpad_bytes() const;

  /// Warp width of the simulated GPU.
  uint32_t warp_size() const;

  /// Total latency of the random accesses accounted so far (for
  /// latency-bound kernels) and their count.
  double random_latency_sum() const { return random_latency_sum_; }
  uint64_t random_accesses() const { return random_accesses_; }

  sim::PerfCounters& counters() { return counters_; }
  const sim::HwSpec& hw() const;

 private:
  friend class Device;

  /// ReadSeq and WriteSeq: accounts a sequential access of [offset,
  /// offset+size) of `buf`, one run per stretch of same-location pages.
  void AccessSeq(const mem::Buffer& buf, uint64_t offset, uint64_t size,
                 bool is_write);

  /// Routes one access of `size` bytes at absolute address `addr` located
  /// in `loc`. `replay_tlb` controls whether this access replays a device
  /// L2 TLB lookup (random accesses through the public Read/Write methods
  /// do; partitioners with their own BlockTlb do not).
  void Account(uint64_t addr, uint64_t size, sim::PageLocation loc,
               bool is_write, bool is_random, bool replay_tlb = true);

  /// Performs (or, in a deferred sub-context, logs) one shared-TLB access.
  /// `with_latency` accumulates the outcome latency into the random-access
  /// sums (random accesses and flushes do; sequential walks do not).
  void SharedTlbAccess(uint64_t addr, sim::PageLocation loc,
                       bool with_latency);

  /// Bulk form: one shared-TLB access per translation range covered by the
  /// byte run [addr, addr + size), in ascending range order. Outside a
  /// deferring sub-context this goes through TlbSimulator::TranslateRun in
  /// one call; inside, one log entry per range is appended — either way
  /// the replayed sequence equals a per-range SharedTlbAccess loop.
  void SharedTlbRun(uint64_t addr, uint64_t size, sim::PageLocation loc,
                    bool with_latency);

  /// Appends one deferred shared-TLB access to the sub-context's logs.
  void LogTlb(uint64_t addr, sim::PageLocation loc, sim::TlbLogKind kind);

  /// Reinitializes this context as a deferring sub-context of `device`
  /// that logs for replay lanes (`lane_logs`) or for the reduction,
  /// keeping allocated log capacity (sub-context recycling, see the
  /// context arena in device.cc).
  void ResetForBlock(Device* device, const KernelConfig& config,
                     bool lane_logs);

  /// sim::TlbEscalationSink: logs a block-local TLB miss for ordered
  /// replay. Only reachable on deferred sub-contexts via escalation_sink().
  sim::TranslationResult EscalateMiss(uint64_t addr, sim::PageLocation loc,
                                      sim::PerfCounters* counters) override;

  /// Reduces sub-context `sub` into this context: replays its log if the
  /// batch has no replay lanes, adds its random-access latencies in issue
  /// order, and merges its counters and sanitizer state.
  void ReduceBlock(KernelContext& sub);

  Device* device_;
  KernelConfig config_;
  sanitizer::DeviceSanitizer* san_ = nullptr;
  sim::PerfCounters counters_;
  double random_latency_sum_ = 0.0;
  uint64_t random_accesses_ = 0;
  /// True on ForEachBlock sub-contexts: shared-TLB accesses go to the logs.
  bool defer_tlb_ = false;
  /// A sub-context's deferred shared-TLB accesses (sim::TlbLogEntry
  /// values), in issue order. For replay lanes (`lane_logs_`) there is one
  /// log per TLB shard, whose kLatency entries the lane replaces by their
  /// outcome codes, and latency_shards_ holds the shard of each kLatency
  /// entry in issue order, the order their latencies are added in.
  /// Otherwise tlb_logs_[0] holds every access, for the reduction.
  bool lane_logs_ = false;
  std::array<std::vector<uint64_t>, sim::TlbSimulator::kMaxShards> tlb_logs_;
  std::vector<uint8_t> latency_shards_;
  /// L2 TLB misses per block of this launch context's last ForEachBlock
  /// batch, which decides whether the next one runs replay lanes.
  uint64_t batch_mean_misses_ = 0;
  /// Owned sanitizer fork backing san_ on sub-contexts.
  std::unique_ptr<sanitizer::DeviceSanitizer> san_fork_;
};

/// The simulated GPU.
class Device {
 public:
  /// `sanitize` controls the DeviceSanitizer for this device; the default
  /// follows sanitizer::DefaultEnabled() (on in tests, off in benches,
  /// overridable with the TRITON_SANITIZER environment variable).
  explicit Device(const sim::HwSpec& hw);
  Device(const sim::HwSpec& hw, bool sanitize);
  ~Device();

  /// Runs `body` as one kernel and returns its record. The GPU TLB is
  /// flushed before the kernel starts. With the sanitizer enabled, the
  /// launch's shadow state is checked when `body` returns.
  KernelRecord Launch(const KernelConfig& config,
                      const std::function<void(KernelContext&)>& body);

  /// Appends an externally-computed record (CPU-side phases use this so
  /// they appear in the same trace).
  void Record(const KernelRecord& record) { trace_.push_back(record); }

  mem::Allocator& allocator() { return allocator_; }

  /// The device's checking layer, or null when disabled.
  sanitizer::DeviceSanitizer* sanitizer() { return san_.get(); }

  const sim::HwSpec& hw() const { return hw_; }
  const sim::CostModel& cost_model() const { return cost_model_; }
  sim::TlbSimulator& tlb() { return tlb_; }
  const sim::Packetizer& packetizer() const { return packetizer_; }

  /// Launch trace since the last ClearTrace().
  const std::vector<KernelRecord>& trace() const { return trace_; }
  void ClearTrace() { trace_.clear(); }

  /// Sum of elapsed times over the trace (no overlap).
  double TraceElapsed() const;

 private:
  friend class KernelContext;

  sim::HwSpec hw_;
  sim::CostModel cost_model_;
  sim::Packetizer packetizer_;
  sim::TlbSimulator tlb_;
  mem::Allocator allocator_;
  std::unique_ptr<sanitizer::DeviceSanitizer> san_;
  std::vector<KernelRecord> trace_;
};

// The per-access accounting path, defined inline here (it needs the
// complete Device) so every kernel loop that accounts a random access per
// tuple compiles it into the loop body.

inline void KernelContext::ReadRand(const mem::Buffer& buf, uint64_t offset,
                                    uint64_t size) {
  DCHECK_LE(offset + size, buf.size());
  Account(buf.base_addr() + offset, size, buf.LocationOf(offset),
          /*is_write=*/false, /*is_random=*/true);
}

inline void KernelContext::WriteRand(const mem::Buffer& buf, uint64_t offset,
                                     uint64_t size) {
  DCHECK_LE(offset + size, buf.size());
  Account(buf.base_addr() + offset, size, buf.LocationOf(offset),
          /*is_write=*/true, /*is_random=*/true);
}

inline void KernelContext::Account(uint64_t addr, uint64_t size,
                                   sim::PageLocation loc, bool is_write,
                                   bool is_random, bool replay_tlb) {
  if (size == 0) return;
  if (san_ != nullptr) san_->RecordAccounted(addr, size, is_write);
  if (loc == sim::PageLocation::kGpuMem) {
    if (is_write) {
      counters_.gpu_mem_write += size;
      if (is_random) counters_.gpu_mem_random_write += size;
    } else {
      counters_.gpu_mem_read += size;
    }
  } else {
    // CPU-memory access: crosses the interconnect.
    sim::TxnStats txn =
        is_random ? device_->packetizer_.Access(addr, size, is_write)
                  : device_->packetizer_.Bulk(addr, size, is_write);
    if (is_write) {
      counters_.link_write_payload += txn.payload;
      counters_.link_write_physical += txn.physical;
      counters_.link_write_txns += txn.txns;
    } else {
      counters_.link_read_payload += txn.payload;
      counters_.link_read_physical += txn.physical;
      counters_.link_read_txns += txn.txns;
    }
  }
  if (is_random && replay_tlb) {
    SharedTlbAccess(addr, loc, /*with_latency=*/true);
  }
}

inline void KernelContext::LogTlb(uint64_t addr, sim::PageLocation loc,
                                  sim::TlbLogKind kind) {
  const uint32_t shard = lane_logs_ ? device_->tlb_.ShardOf(addr) : 0;
  tlb_logs_[shard].push_back(sim::TlbLogEntry(addr, loc, kind));
  if (lane_logs_ && kind == sim::TlbLogKind::kLatency) {
    latency_shards_.push_back(static_cast<uint8_t>(shard));
  }
}

inline void KernelContext::SharedTlbAccess(uint64_t addr,
                                           sim::PageLocation loc,
                                           bool with_latency) {
  if (defer_tlb_) {
    LogTlb(addr, loc,
           with_latency ? sim::TlbLogKind::kLatency : sim::TlbLogKind::kRange);
    return;
  }
  auto tr = device_->tlb_.Access(addr, loc, &counters_);
  if (with_latency) {
    random_latency_sum_ += tr.latency;
    ++random_accesses_;
  }
}

}  // namespace triton::exec

#endif  // TRITON_EXEC_DEVICE_H_
