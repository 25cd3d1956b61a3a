// Memory arbiter: carves the simulated device between in-flight queries.
//
// The paper's join owns the whole GPU; a service does not. The arbiter
// tracks three budgets of one simulated machine — GPU on-board memory, CPU
// socket memory, and per-block scratchpad (a proxy for concurrent kernel
// residency) — and hands each admitted query a Reservation. The query then
// runs on a private exec::Device built from CarvedSpec(), whose capacities
// equal the grant while bandwidths, latencies and transaction sizes stay
// those of the real machine: the existing operators adapt to the smaller
// capacities exactly as they adapt to a smaller GPU (DeriveBits, spilling,
// chunked scratchpad builds), so concurrency pressure reuses the paper's
// own out-of-core machinery.
//
// Reserve() never blocks and never aborts: an unsatisfiable request fails
// with ResourceExhausted and the caller retries after a release. All
// methods are single-threaded by design — the JoinService scheduler is the
// only caller (see DESIGN.md, "Service layer").

#ifndef TRITON_SERVE_ARBITER_H_
#define TRITON_SERVE_ARBITER_H_

#include <cstdint>
#include <utility>

#include "sim/hw_spec.h"
#include "util/status.h"

namespace triton::serve {

class MemoryArbiter;

/// One query's requested carve of the machine.
struct ResourceRequest {
  uint64_t gpu_bytes = 0;
  uint64_t cpu_bytes = 0;
  uint64_t scratchpad_bytes = 0;
};

/// RAII grant handed out by MemoryArbiter::Reserve; returns its budgets on
/// destruction (or an explicit Release). Move-only.
class Reservation {
 public:
  Reservation() = default;
  ~Reservation() { Release(); }

  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;
  Reservation(Reservation&& other) noexcept { *this = std::move(other); }
  Reservation& operator=(Reservation&& other) noexcept;

  /// True while this reservation holds budget.
  bool active() const { return arbiter_ != nullptr; }
  const ResourceRequest& grant() const { return grant_; }

  /// Returns the grant to the arbiter; idempotent.
  void Release();

 private:
  friend class MemoryArbiter;
  Reservation(MemoryArbiter* arbiter, const ResourceRequest& grant)
      : grant_(grant), arbiter_(arbiter) {}

  ResourceRequest grant_;
  MemoryArbiter* arbiter_ = nullptr;
};

/// Budget accountant for one simulated machine shared by many queries.
class MemoryArbiter {
 public:
  explicit MemoryArbiter(const sim::HwSpec& hw);

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  /// Grants the carve or fails with ResourceExhausted, naming the budget
  /// that ran out. A zero request is granted (and holds nothing).
  util::StatusOr<Reservation> Reserve(const ResourceRequest& request);

  /// The HwSpec a query's private Device runs under: memory capacities and
  /// scratchpad shrunk to the grant, everything else the real machine. A
  /// zero scratchpad grant keeps the machine's scratchpad (the query runs
  /// no scratchpad kernels, so it holds none of that budget).
  sim::HwSpec CarvedSpec(const Reservation& reservation) const;

  uint64_t gpu_free() const { return gpu_capacity_ - gpu_used_; }
  uint64_t cpu_free() const { return cpu_capacity_ - cpu_used_; }
  uint64_t scratchpad_free() const {
    return scratchpad_capacity_ - scratchpad_used_;
  }
  uint64_t gpu_capacity() const { return gpu_capacity_; }
  uint64_t cpu_capacity() const { return cpu_capacity_; }
  uint64_t scratchpad_capacity() const { return scratchpad_capacity_; }
  uint32_t active_reservations() const { return active_; }

 private:
  friend class Reservation;
  void ReturnGrant(const ResourceRequest& grant);

  sim::HwSpec hw_;
  uint64_t gpu_capacity_ = 0;
  uint64_t cpu_capacity_ = 0;
  uint64_t scratchpad_capacity_ = 0;
  uint64_t gpu_used_ = 0;
  uint64_t cpu_used_ = 0;
  uint64_t scratchpad_used_ = 0;
  uint32_t active_ = 0;
};

}  // namespace triton::serve

#endif  // TRITON_SERVE_ARBITER_H_
