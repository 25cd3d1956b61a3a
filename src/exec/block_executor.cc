#include "exec/block_executor.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace triton::exec {

namespace {

uint32_t DefaultThreads() {
  const char* env = std::getenv("TRITON_THREADS");
  if (env != nullptr && env[0] != '\0') {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<uint32_t>(v);
  }
  uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

BlockExecutor& BlockExecutor::Global() {
  static BlockExecutor* executor = new BlockExecutor();
  return *executor;
}

BlockExecutor::BlockExecutor() { SetThreads(0); }

BlockExecutor::~BlockExecutor() { StopWorkers(); }

void BlockExecutor::SetThreads(uint32_t threads) {
  if (threads == 0) threads = DefaultThreads();
  if (threads == threads_ &&
      (threads == 1 || workers_.size() == threads - 1)) {
    return;
  }
  StopWorkers();
  threads_ = threads;
  // The calling thread participates in Run, so the pool holds one fewer
  // worker than the requested parallelism.
  if (threads_ > 1) StartWorkers(threads_ - 1);
}

void BlockExecutor::StartWorkers(uint32_t workers) {
  shutdown_ = false;
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void BlockExecutor::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void BlockExecutor::RunBlock(const std::function<void(uint32_t)>& fn,
                             uint32_t b) {
  try {
    fn(b);
  } catch (...) {
    errors_[b] = std::current_exception();
  }
  done_[b].store(1, std::memory_order_release);
}

void BlockExecutor::DrainBatch(const std::function<void(uint32_t)>& fn,
                               uint32_t num_blocks, Order order) {
  if (order == Order::kSequential) {
    // The whole batch is one claim: whoever wins it runs every block.
    if (next_block_.fetch_add(1, std::memory_order_relaxed) != 0) return;
    for (uint32_t b = 0; b < num_blocks; ++b) RunBlock(fn, b);
    return;
  }
  while (true) {
    const uint32_t b = next_block_.fetch_add(1, std::memory_order_relaxed);
    if (b >= num_blocks) return;
    RunBlock(fn, b);
  }
}

void BlockExecutor::WorkerLoop() {
  uint64_t seen_batch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || batch_id_ != seen_batch; });
    if (shutdown_) return;
    seen_batch = batch_id_;
    if (batch_fn_ == nullptr) continue;  // batch already fully reduced
    const std::function<void(uint32_t)>* fn = batch_fn_;
    const uint32_t num_blocks = batch_blocks_;
    const Order order = batch_order_;
    ++active_workers_;
    lock.unlock();
    DrainBatch(*fn, num_blocks, order);
    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void BlockExecutor::Run(uint32_t num_blocks,
                        const std::function<void(uint32_t)>& fn,
                        const std::function<void(uint32_t)>& reduce,
                        Order order) {
  if (num_blocks == 0) return;
  if (threads_ == 1 || num_blocks == 1 || workers_.empty()) {
    std::exception_ptr error;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      try {
        fn(b);
      } catch (...) {
        if (error == nullptr) error = std::current_exception();
      }
      if (reduce) reduce(b);
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(batch_fn_ == nullptr) << "BlockExecutor::Run is not reentrant";
    if (capacity_ < num_blocks) {
      capacity_ = std::max(num_blocks, 2 * capacity_);
      done_ = std::make_unique<std::atomic<uint8_t>[]>(capacity_);
      errors_.resize(capacity_);
    }
    for (uint32_t b = 0; b < num_blocks; ++b) {
      done_[b].store(0, std::memory_order_relaxed);
      errors_[b] = nullptr;
    }
    batch_fn_ = &fn;
    batch_blocks_ = num_blocks;
    batch_order_ = order;
    next_block_.store(0, std::memory_order_relaxed);
    ++batch_id_;
  }
  work_cv_.notify_all();

  // Reduce block `next` as soon as it is done; otherwise help run blocks
  // (any-order batches only), and once none are left to claim, wait.
  std::exception_ptr error;
  bool reducing = static_cast<bool>(reduce);
  bool claiming = order == Order::kAny;
  for (uint32_t next = 0; next < num_blocks;) {
    if (done_[next].load(std::memory_order_acquire) != 0) {
      if (error == nullptr) error = errors_[next];
      if (reducing) {
        try {
          reduce(next);
        } catch (...) {
          if (error == nullptr) error = std::current_exception();
          reducing = false;
        }
      }
      ++next;
      continue;
    }
    if (claiming) {
      const uint32_t b = next_block_.fetch_add(1, std::memory_order_relaxed);
      if (b < num_blocks) {
        RunBlock(fn, b);
        continue;
      }
      claiming = false;
    }
    std::this_thread::yield();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    batch_fn_ = nullptr;
    batch_blocks_ = 0;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace triton::exec
