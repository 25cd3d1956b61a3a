#include "serve/arbiter.h"

#include <utility>

#include "util/logging.h"
#include "util/units.h"

namespace triton::serve {

Reservation& Reservation::operator=(Reservation&& other) noexcept {
  if (this != &other) {
    Release();
    grant_ = other.grant_;
    arbiter_ = other.arbiter_;
    other.arbiter_ = nullptr;
    other.grant_ = ResourceRequest{};
  }
  return *this;
}

void Reservation::Release() {
  if (arbiter_ == nullptr) return;
  arbiter_->ReturnGrant(grant_);
  arbiter_ = nullptr;
  grant_ = ResourceRequest{};
}

MemoryArbiter::MemoryArbiter(const sim::HwSpec& hw)
    : hw_(hw),
      gpu_capacity_(hw.gpu_mem.capacity),
      cpu_capacity_(hw.cpu_mem.capacity),
      scratchpad_capacity_(hw.gpu.scratchpad_bytes) {}

util::StatusOr<Reservation> MemoryArbiter::Reserve(
    const ResourceRequest& request) {
  if (request.gpu_bytes > gpu_free()) {
    return util::Status::ResourceExhausted(
        "GPU budget exhausted: need " + util::FormatBytes(request.gpu_bytes) +
        ", free " + util::FormatBytes(gpu_free()));
  }
  if (request.cpu_bytes > cpu_free()) {
    return util::Status::ResourceExhausted(
        "CPU budget exhausted: need " + util::FormatBytes(request.cpu_bytes) +
        ", free " + util::FormatBytes(cpu_free()));
  }
  if (request.scratchpad_bytes > scratchpad_free()) {
    return util::Status::ResourceExhausted(
        "scratchpad budget exhausted: need " +
        util::FormatBytes(request.scratchpad_bytes) + ", free " +
        util::FormatBytes(scratchpad_free()));
  }
  gpu_used_ += request.gpu_bytes;
  cpu_used_ += request.cpu_bytes;
  scratchpad_used_ += request.scratchpad_bytes;
  ++active_;
  return Reservation(this, request);
}

void MemoryArbiter::ReturnGrant(const ResourceRequest& grant) {
  CHECK_GE(gpu_used_, grant.gpu_bytes);
  CHECK_GE(cpu_used_, grant.cpu_bytes);
  CHECK_GE(scratchpad_used_, grant.scratchpad_bytes);
  CHECK_GT(active_, 0u);
  gpu_used_ -= grant.gpu_bytes;
  cpu_used_ -= grant.cpu_bytes;
  scratchpad_used_ -= grant.scratchpad_bytes;
  --active_;
}

sim::HwSpec MemoryArbiter::CarvedSpec(const Reservation& reservation) const {
  CHECK(reservation.active());
  sim::HwSpec spec = hw_;
  const ResourceRequest& g = reservation.grant();
  spec.gpu_mem.capacity = g.gpu_bytes;
  spec.cpu_mem.capacity = g.cpu_bytes;
  if (g.scratchpad_bytes > 0) spec.gpu.scratchpad_bytes = g.scratchpad_bytes;
  return spec;
}

}  // namespace triton::serve
