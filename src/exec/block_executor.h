// Host-side thread pool that runs simulated thread blocks concurrently.
//
// Every kernel in this codebase decomposes into independent thread blocks
// (one input chunk and one output slice set per block); the executor maps
// those blocks onto persistent host worker threads. Determinism is the
// contract: blocks may run in any order on any thread, so they must touch
// only per-block state. The shared-device effects of a block are applied
// after it, in block order, in two steps (KernelContext::ForEachBlock):
//
//   - Replay lanes. A batch may have lanes, each an ordered pass over the
//     finished blocks (one TLB shard each). Lane l's step covers every
//     block that finished after its previous step, up to the first
//     unfinished block, in block order; at most one thread runs a lane at
//     a time. A thread takes a ready lane step before it claims another
//     block.
//   - The reduction. reduce(b) runs on the launching thread once block b
//     finished and every lane has passed it, in block order, while later
//     blocks and lane steps still run.
//
// A batch may also carry one task outside the block order: the first
// worker to join the batch runs it while the other threads run blocks,
// lane steps and the reduction, so no lane step or reduction waits for it.
//
// Workers publish a finished block with one release store of its done
// flag, and a lane's progress with one release store of its next block.
//
// The pool size comes from, in decreasing precedence: SetThreads() (the
// --threads bench flag), the TRITON_THREADS environment variable, and
// std::thread::hardware_concurrency(), and never exceeds kMaxThreads. One
// thread means inline execution with zero synchronization: the task runs
// first, and each block's lane steps and reduction run right after it.
// Such a batch touches no executor state, so several host threads may each
// run one at the same time (the benches' --jobs mode).

#ifndef TRITON_EXEC_BLOCK_EXECUTOR_H_
#define TRITON_EXEC_BLOCK_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/bits.h"

namespace triton::exec {

/// Persistent worker pool; see file comment.
class BlockExecutor {
 public:
  /// The process-wide executor used by KernelContext::ForEachBlock.
  static BlockExecutor& Global();

  /// Largest pool size: a request beyond it is a caller's bug (a negative
  /// count cast to unsigned), never a machine to use.
  static constexpr uint32_t kMaxThreads = 1024;

  /// Most replay lanes one batch may have.
  static constexpr uint32_t kMaxLanes = 8;

  /// A lane step: step(lane, first, last) handles blocks [first, last) of
  /// lane `lane`, in block order.
  using LaneStep = std::function<void(uint32_t, uint32_t, uint32_t)>;

  BlockExecutor();
  ~BlockExecutor();

  BlockExecutor(const BlockExecutor&) = delete;
  BlockExecutor& operator=(const BlockExecutor&) = delete;

  /// Resizes the pool to `threads` workers (0 restores the environment /
  /// hardware default); aborts, before touching any worker, when `threads`
  /// exceeds kMaxThreads. Must not be called while Run is active.
  void SetThreads(uint32_t threads);

  /// Current pool size (>= 1; includes the calling thread).
  uint32_t threads() const { return threads_; }

  /// Runs fn(b) for every b in [0, num_blocks); for each of `lanes` lanes
  /// (at most kMaxLanes) runs lane_step over every block, in ordered steps
  /// after the blocks finished; and, if `reduce` is non-empty, runs
  /// reduce(b) on the calling thread for every b in ascending order, each
  /// as soon as blocks 0..b have finished and every lane has passed b.
  /// Any thread, the calling one included, claims blocks from an atomic
  /// counter in ascending order, so block-to-thread assignment is
  /// nondeterministic: fn must only touch per-block state; a lane step may
  /// touch its lane's state and its blocks' state for that lane; reduce(b)
  /// must not touch state that blocks or lane steps after b use. Returns
  /// when every block ran, passed every lane and was reduced. A block that
  /// throws still passes the lanes and is reduced. A non-empty `task` runs
  /// once, alongside the blocks, on a worker (on the calling thread if no
  /// worker took it by the last reduction, and first at one thread); it
  /// must not touch state that blocks, lane steps or reductions use, and
  /// Run returns after it ended. The first exception in block order, else
  /// the task's, else the first a lane step threw, is rethrown here after
  /// all workers have drained.
  void Run(uint32_t num_blocks, const std::function<void(uint32_t)>& fn,
           const std::function<void(uint32_t)>& reduce = {},
           uint32_t lanes = 0, const LaneStep& lane_step = {},
           const std::function<void()>& task = {});

 private:
  /// What a worker needs of the current batch.
  struct Batch {
    const std::function<void(uint32_t)>* fn = nullptr;
    const LaneStep* lane_step = nullptr;
    const std::function<void()>* task = nullptr;
    uint32_t num_blocks = 0;
    uint32_t lanes = 0;
  };

  /// One replay lane's progress, on a cache line of its own.
  struct alignas(util::kCacheLineBytes) Lane {
    /// First block the lane has not handled; written only by its holder.
    std::atomic<uint32_t> next{0};
    /// Set while one thread runs the lane.
    std::atomic<bool> busy{false};
    /// First exception a step of this lane threw.
    std::exception_ptr error;
  };

  void WorkerLoop();
  /// A worker's share of a batch: runs the task if no thread has claimed
  /// it, then claims and runs blocks (taking ready lane steps first) until
  /// none are left, then runs lane steps until every lane has passed every
  /// block.
  void DrainBatch(const Batch& batch);
  /// Runs the batch's task, keeping its exception, unless a thread has
  /// claimed it.
  void TryTask(const Batch& batch);
  /// Runs block b, keeps its exception, and publishes its done flag.
  void RunBlock(const std::function<void(uint32_t)>& fn, uint32_t b);
  /// Runs one ready lane step, trying lanes from `cursor` on (which it
  /// advances). Returns false when no lane had a step ready.
  bool TryLaneStep(const Batch& batch, uint32_t& cursor);
  /// Whether every lane has passed every block of the batch.
  bool LanesDone(const Batch& batch) const;
  void StopWorkers();
  void StartWorkers(uint32_t workers);

  uint32_t threads_ = 1;
  std::vector<std::thread> workers_;

  // All fields below are guarded by mu_, except that during a batch the
  // block runners and the calling thread share next_block_ (the atomic
  // claim counter), block b's done flag and error slot (written by its
  // runner before the flag's release store, read after its acquire load)
  // and the lanes (a lane's holder writes its state between the acquire
  // and the release of its busy flag, and publishes its progress with a
  // release store of `next`). The task's runner claims it with task_claimed_
  // and writes task_error_ before it leaves the batch.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  /// Incremented per Run() batch; workers wake when it changes.
  uint64_t batch_id_ = 0;
  /// The current batch; batch_.fn is null between batches.
  Batch batch_;
  std::atomic<uint32_t> next_block_{0};
  std::atomic<bool> task_claimed_{false};
  std::exception_ptr task_error_;
  Lane lanes_[kMaxLanes];
  /// Per-block done flags and exceptions of the current batch; grown (never
  /// shrunk) and reset before each batch is published.
  std::unique_ptr<std::atomic<uint8_t>[]> done_;
  std::vector<std::exception_ptr> errors_;
  uint32_t capacity_ = 0;
  /// Workers currently inside DrainBatch; Run waits for zero so a straggler
  /// cannot leak into the next batch's claim counter.
  uint32_t active_workers_ = 0;
};

}  // namespace triton::exec

#endif  // TRITON_EXEC_BLOCK_EXECUTOR_H_
