#include "exec/block_executor.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace triton::exec {

namespace {

/// TRITON_THREADS when it is in [1, kMaxThreads], else the hardware
/// concurrency (capped at kMaxThreads).
uint32_t DefaultThreads() {
  const char* env = std::getenv("TRITON_THREADS");
  if (env != nullptr && env[0] != '\0') {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1 && v <= BlockExecutor::kMaxThreads) {
      return static_cast<uint32_t>(v);
    }
  }
  uint32_t hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, BlockExecutor::kMaxThreads);
}

/// Runs f(); if it throws and `error` holds no exception yet, keeps it there.
template <typename F>
void KeepFirstError(std::exception_ptr& error, const F& f) {
  try {
    f();
  } catch (...) {
    if (error == nullptr) error = std::current_exception();
  }
}

}  // namespace

BlockExecutor& BlockExecutor::Global() {
  static BlockExecutor* executor = new BlockExecutor();
  return *executor;
}

BlockExecutor::BlockExecutor() { SetThreads(0); }

BlockExecutor::~BlockExecutor() { StopWorkers(); }

void BlockExecutor::SetThreads(uint32_t threads) {
  CHECK_LE(threads, kMaxThreads) << "BlockExecutor thread count";
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
  KeepFirstError(errors_[b], [&] { fn(b); });
  done_[b].store(1, std::memory_order_release);
}

bool BlockExecutor::TryLaneStep(const Batch& batch, uint32_t& cursor) {
  for (uint32_t i = 0; i < batch.lanes; ++i) {
    const uint32_t l = (cursor + i) % batch.lanes;
    Lane& lane = lanes_[l];
    const uint32_t first = lane.next.load(std::memory_order_acquire);
    if (first >= batch.num_blocks ||
        done_[first].load(std::memory_order_acquire) == 0 ||
        lane.busy.exchange(true, std::memory_order_acquire)) {
      continue;
    }
    // Holding the lane: its `next` cannot move under us, but it may have
    // moved between the check above and the exchange.
    const uint32_t begin = lane.next.load(std::memory_order_relaxed);
    uint32_t end = begin;
    while (end < batch.num_blocks &&
           done_[end].load(std::memory_order_acquire) != 0) {
      ++end;
    }
    if (end > begin) {
      KeepFirstError(lane.error, [&] { (*batch.lane_step)(l, begin, end); });
      lane.next.store(end, std::memory_order_release);
    }
    lane.busy.store(false, std::memory_order_release);
    if (end > begin) {
      cursor = l + 1;
      return true;
    }
  }
  return false;
}

bool BlockExecutor::LanesDone(const Batch& batch) const {
  for (uint32_t l = 0; l < batch.lanes; ++l) {
    if (lanes_[l].next.load(std::memory_order_acquire) < batch.num_blocks) {
      return false;
    }
  }
  return true;
}

void BlockExecutor::TryTask(const Batch& batch) {
  // acq_rel: a thread that loses the claim sees that the winner joined the
  // batch, so Run's wait for the workers also waits for the task.
  if (batch.task == nullptr ||
      task_claimed_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  KeepFirstError(task_error_, *batch.task);
}

void BlockExecutor::DrainBatch(const Batch& batch) {
  TryTask(batch);
  uint32_t cursor = 0;
  while (true) {
    if (TryLaneStep(batch, cursor)) continue;
    const uint32_t b = next_block_.fetch_add(1, std::memory_order_relaxed);
    if (b >= batch.num_blocks) break;
    RunBlock(*batch.fn, b);
  }
  while (!LanesDone(batch)) {
    if (!TryLaneStep(batch, cursor)) std::this_thread::yield();
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
    if (batch_.fn == nullptr) continue;  // batch already fully reduced
    const Batch batch = batch_;
    ++active_workers_;
    lock.unlock();
    DrainBatch(batch);
    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void BlockExecutor::Run(uint32_t num_blocks,
                        const std::function<void(uint32_t)>& fn,
                        const std::function<void(uint32_t)>& reduce,
                        uint32_t lanes, const LaneStep& lane_step,
                        const std::function<void()>& task) {
  CHECK_LE(lanes, kMaxLanes);
  if (!lane_step) lanes = 0;
  std::exception_ptr error;
  if (threads_ == 1 || workers_.empty() || (num_blocks <= 1 && !task)) {
    // Inline: touches no executor state, so several host threads may run
    // one-thread batches at once (the benches' --jobs mode).
    std::exception_ptr task_error;
    std::exception_ptr lane_error;
    if (task) KeepFirstError(task_error, task);
    for (uint32_t b = 0; b < num_blocks; ++b) {
      KeepFirstError(error, [&] { fn(b); });
      for (uint32_t l = 0; l < lanes; ++l) {
        KeepFirstError(lane_error, [&] { lane_step(l, b, b + 1); });
      }
      if (reduce) reduce(b);
    }
    if (error == nullptr) error = task_error;
    if (error == nullptr) error = lane_error;
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }
  const Batch batch = {.fn = &fn,
                       .lane_step = &lane_step,
                       .task = task ? &task : nullptr,
                       .num_blocks = num_blocks,
                       .lanes = lanes};
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(batch_.fn == nullptr) << "BlockExecutor::Run is not reentrant";
    if (capacity_ < num_blocks) {
      capacity_ = std::max(num_blocks, 2 * capacity_);
      done_ = std::make_unique<std::atomic<uint8_t>[]>(capacity_);
      errors_.resize(capacity_);
    }
    for (uint32_t b = 0; b < num_blocks; ++b) {
      done_[b].store(0, std::memory_order_relaxed);
      errors_[b] = nullptr;
    }
    for (uint32_t l = 0; l < lanes; ++l) {
      lanes_[l].next.store(0, std::memory_order_relaxed);
      lanes_[l].error = nullptr;
    }
    batch_ = batch;
    next_block_.store(0, std::memory_order_relaxed);
    task_claimed_.store(false, std::memory_order_relaxed);
    task_error_ = nullptr;
    ++batch_id_;
  }
  work_cv_.notify_all();

  // Reduce every block that finished and passed all lanes; otherwise take
  // a ready lane step, else help run blocks, and once none are left to
  // claim, wait. Then run the task if no worker took it.
  bool reducing = static_cast<bool>(reduce);
  bool claiming = true;
  uint32_t cursor = 0;
  for (uint32_t next = 0; next < num_blocks;) {
    uint32_t passed = num_blocks;
    for (uint32_t l = 0; l < lanes; ++l) {
      passed = std::min(passed,
                        lanes_[l].next.load(std::memory_order_acquire));
    }
    if (next < passed && done_[next].load(std::memory_order_acquire) != 0) {
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
    if (TryLaneStep(batch, cursor)) continue;
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
  TryTask(batch);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    batch_ = {};
  }
  if (error == nullptr) error = task_error_;
  for (uint32_t l = 0; l < lanes && error == nullptr; ++l) {
    error = lanes_[l].error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace triton::exec
