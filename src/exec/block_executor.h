// Host-side thread pool that runs simulated thread blocks concurrently.
//
// Every kernel in this codebase decomposes into independent thread blocks
// (one input chunk and one output slice set per block); the executor maps
// those blocks onto persistent host worker threads. Determinism is the
// contract: blocks may run in any order on any thread, so they must touch
// only per-block state. The shared-device effects of a block — TLB replay,
// sanitizer shadow state, counters — are applied by a reduce step that
// Run calls on the launching thread for every block in block order, as
// soon as that block and all blocks before it have finished, while later
// blocks still run (KernelContext::ForEachBlock). Workers publish a
// finished block with one release store of its done flag; the launching
// thread claims blocks itself whenever no finished block is waiting to be
// reduced.
//
// The pool size comes from, in decreasing precedence: SetThreads() (the
// --threads bench flag), the TRITON_THREADS environment variable, and
// std::thread::hardware_concurrency(). One thread means inline execution
// with zero synchronization: each block is reduced right after it runs.

#ifndef TRITON_EXEC_BLOCK_EXECUTOR_H_
#define TRITON_EXEC_BLOCK_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace triton::exec {

/// Persistent worker pool; see file comment.
class BlockExecutor {
 public:
  /// The process-wide executor used by KernelContext::ForEachBlock.
  static BlockExecutor& Global();

  BlockExecutor();
  ~BlockExecutor();

  BlockExecutor(const BlockExecutor&) = delete;
  BlockExecutor& operator=(const BlockExecutor&) = delete;

  /// Resizes the pool to `threads` workers (0 restores the environment /
  /// hardware default). Must not be called while Run is active.
  void SetThreads(uint32_t threads);

  /// Current pool size (>= 1; includes the calling thread).
  uint32_t threads() const { return threads_; }

  /// How Run assigns a batch's blocks to threads.
  enum class Order {
    /// Blocks are claimed from an atomic counter by any thread, the
    /// calling one included.
    kAny,
    /// One pool thread runs the blocks one after another in ascending
    /// order (each starts after the previous one returned and sees its
    /// writes), while the calling thread reduces the finished ones.
    kSequential,
  };

  /// Runs fn(b) for every b in [0, num_blocks) and, if `reduce` is
  /// non-empty, reduce(b) on the calling thread for every b in ascending
  /// order, each as soon as blocks 0..b have finished. Under Order::kAny
  /// block-to-thread assignment is nondeterministic, so fn must only touch
  /// per-block state; reduce(b) must not touch state that blocks after b
  /// use. Returns when every block ran and was reduced. A block that
  /// throws is still reduced; the first exception in block order is
  /// rethrown here after all workers have drained.
  void Run(uint32_t num_blocks, const std::function<void(uint32_t)>& fn,
           const std::function<void(uint32_t)>& reduce = {},
           Order order = Order::kAny);

 private:
  void WorkerLoop();
  /// Claims and runs blocks of the current batch until none are left.
  void DrainBatch(const std::function<void(uint32_t)>& fn, uint32_t num_blocks,
                  Order order);
  /// Runs block b, keeps its exception, and publishes its done flag.
  void RunBlock(const std::function<void(uint32_t)>& fn, uint32_t b);
  void StopWorkers();
  void StartWorkers(uint32_t workers);

  uint32_t threads_ = 1;
  std::vector<std::thread> workers_;

  // All fields below are guarded by mu_, except that during a batch the
  // block runners and the calling thread share next_block_ (the atomic
  // claim counter) and block b's done flag and error slot (written by its
  // runner before the flag's release store, read after its acquire load).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  /// Incremented per Run() batch; workers wake when it changes.
  uint64_t batch_id_ = 0;
  uint32_t batch_blocks_ = 0;
  Order batch_order_ = Order::kAny;
  const std::function<void(uint32_t)>* batch_fn_ = nullptr;
  std::atomic<uint32_t> next_block_{0};
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
