#include "mem/allocator.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bits.h"
#include "util/logging.h"
#include "util/units.h"

namespace triton::mem {

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TRITON_HOST_BLOCK_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TRITON_HOST_BLOCK_POOL 0
#else
#define TRITON_HOST_BLOCK_POOL 1
#endif
#else
#define TRITON_HOST_BLOCK_POOL 1
#endif

/// Process-wide pool of host storage blocks backing simulated buffers.
/// Benches and the serve layer tear whole Devices down between cells and
/// re-allocate the same buffer sizes immediately after; recycling the host
/// blocks avoids re-faulting gigabytes per cell (and preserves huge-page
/// backing once established). Host pointers are invisible to the model —
/// simulated addresses come from the allocator's deterministic bump
/// pointer — so pooling cannot change modeled physics. Disabled under
/// ASan/TSan so lifetime bugs stay visible to the sanitizers.
class HostBlockPool {
 public:
  struct Block {
    void* data = nullptr;
  };

  static HostBlockPool& Get() {
    static HostBlockPool* pool = new HostBlockPool;
    return *pool;
  }

  Block Acquire(uint64_t bytes, uint64_t align) {
#if TRITON_HOST_BLOCK_POOL
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = free_.find({bytes, align});
      if (it != free_.end() && !it->second.empty()) {
        void* p = it->second.back();
        it->second.pop_back();
        pooled_bytes_ -= bytes;
        live_.emplace(p, std::pair<uint64_t, uint64_t>{bytes, align});
        return {p};
      }
    }
    void* p = std::aligned_alloc(align, bytes);
    if (p != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      live_.emplace(p, std::pair<uint64_t, uint64_t>{bytes, align});
    }
    return {p};
#else
    return {std::aligned_alloc(align, bytes)};
#endif
  }

  /// Returns true if the pointer was pool-managed (retained or freed).
  bool Release(void* p) {
#if TRITON_HOST_BLOCK_POOL
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(p);
    if (it == live_.end()) return false;
    auto [bytes, align] = it->second;
    live_.erase(it);
    if (pooled_bytes_ + bytes > kMaxPooledBytes) {
      std::free(p);
      return true;
    }
    pooled_bytes_ += bytes;
    free_[{bytes, align}].push_back(p);
    return true;
#else
    (void)p;
    return false;
#endif
  }

 private:
  static constexpr uint64_t kMaxPooledBytes = 2ull << 30;

  std::mutex mu_;
  uint64_t pooled_bytes_ = 0;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<void*>> free_;
  std::unordered_map<void*, std::pair<uint64_t, uint64_t>> live_;
};

/// Free path for every host block: returns it to the pool when pooled,
/// falls back to the libc allocator otherwise.
void FreeHostBlock(void* p) {
  if (p == nullptr) return;
  if (!HostBlockPool::Get().Release(p)) std::free(p);
}

}  // namespace

Buffer::~Buffer() {
  if (owner_ != nullptr) {
    owner_->Free(*this);
  } else if (data_ != nullptr) {
    FreeHostBlock(data_);
    data_ = nullptr;
  }
}

Buffer::Buffer(Buffer&& other) noexcept { *this = std::move(other); }

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    if (owner_ != nullptr) {
      owner_->Free(*this);
    } else if (data_ != nullptr) {
      FreeHostBlock(data_);
    }
    data_ = other.data_;
    size_ = other.size_;
    page_bytes_ = other.page_bytes_;
    gpu_bytes_ = other.gpu_bytes_;
    sim_addr_ = other.sim_addr_;
    placement_ = other.placement_;
    owner_ = other.owner_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.gpu_bytes_ = 0;
    other.sim_addr_ = 0;
    other.owner_ = nullptr;
  }
  return *this;
}

Allocator::Allocator(const sim::HwSpec& hw) : hw_(hw) {
  CHECK_GT(hw_.tlb.page_bytes, 0u);
}

Allocator::~Allocator() {
  if (live_buffers_ != 0) {
    LOG(WARNING) << "Allocator destroyed with " << live_buffers_
                 << " live buffers";
  }
  if (!arenas_.empty()) {
    LOG(WARNING) << "Allocator destroyed with " << arenas_.size()
                 << " open arena frames";
  }
}

uint64_t Allocator::BeginArena() {
  ArenaFrame frame;
  frame.id = next_arena_id_++;
  frame.sim_addr_checkpoint = next_sim_addr_;
  frame.live_checkpoint = live_buffers_;
  arenas_.push_back(frame);
  if (observer_ != nullptr) {
    observer_->OnArenaBegin(frame.id, frame.sim_addr_checkpoint);
  }
  return frame.id;
}

util::Status Allocator::ArenaViolation(uint64_t id, std::string message) {
  if (observer_ != nullptr) observer_->OnArenaViolation(id, message);
  return util::Status::FailedPrecondition(std::move(message));
}

util::Status Allocator::EndArena(uint64_t id) {
  if (std::find(closed_arena_ids_.begin(), closed_arena_ids_.end(), id) !=
      closed_arena_ids_.end()) {
    return ArenaViolation(
        id, "arena " + std::to_string(id) + " released twice");
  }
  auto it = std::find_if(arenas_.begin(), arenas_.end(),
                         [id](const ArenaFrame& f) { return f.id == id; });
  if (it == arenas_.end()) {
    return ArenaViolation(
        id, "arena " + std::to_string(id) + " is not an open frame");
  }
  if (it + 1 != arenas_.end()) {
    return ArenaViolation(
        id, "arena " + std::to_string(id) + " released out of order (" +
                std::to_string(arenas_.back().id) + " is still open)");
  }
  const ArenaFrame frame = *it;
  if (live_buffers_ != frame.live_checkpoint) {
    return ArenaViolation(
        id, "arena " + std::to_string(id) + " released with " +
                std::to_string(live_buffers_ - frame.live_checkpoint) +
                " live buffer(s); freeing them later would corrupt the "
                "rewound bump pointer");
  }
  // Clean close: rewind the bump pointer so the next query's simulated
  // addresses are independent of this arena's history.
  next_sim_addr_ = frame.sim_addr_checkpoint;
  arenas_.pop_back();
  closed_arena_ids_.push_back(id);
  if (observer_ != nullptr) observer_->OnArenaEnd(id);
  return util::Status::OK();
}

util::StatusOr<Buffer> Allocator::AllocateImpl(uint64_t bytes,
                                               Placement placement) {
  if (bytes == 0) {
    return util::Status::InvalidArgument("cannot allocate 0 bytes");
  }
  const uint64_t page = hw_.tlb.page_bytes;
  uint64_t padded = util::AlignUp(bytes, page);
  uint64_t num_pages = padded / page;

  // Count GPU pages in the placement pattern over this allocation.
  uint64_t gpu_pages = 0;
  uint32_t group = placement.group_size();
  uint64_t full_groups = num_pages / group;
  gpu_pages += full_groups * placement.gpu_pages_per_group;
  for (uint64_t p = full_groups * group; p < num_pages; ++p) {
    if (placement.LocationOfPage(p) == sim::PageLocation::kGpuMem) ++gpu_pages;
  }
  uint64_t gpu_bytes = gpu_pages * page;
  uint64_t cpu_bytes = padded - gpu_bytes;

  if (gpu_used_ + gpu_bytes > gpu_capacity()) {
    return util::Status::OutOfMemory(
        "GPU memory exhausted: need " + util::FormatBytes(gpu_bytes) +
        ", free " + util::FormatBytes(gpu_free()));
  }
  if (cpu_used_ + cpu_bytes > cpu_capacity()) {
    return util::Status::OutOfMemory(
        "CPU memory exhausted: need " + util::FormatBytes(cpu_bytes) +
        ", used " + util::FormatBytes(cpu_used_));
  }

  // Align host allocations to the simulated page size so that TLB-range
  // arithmetic on real pointers is exact.
  uint64_t align = std::min<uint64_t>(page, 1 * util::kMiB);
  HostBlockPool::Block block = HostBlockPool::Get().Acquire(padded, align);
  void* data = block.data;
  if (data == nullptr) {
    return util::Status::OutOfMemory("host allocation failed for " +
                                     util::FormatBytes(padded));
  }

  gpu_used_ += gpu_bytes;
  cpu_used_ += cpu_bytes;
  ++live_buffers_;

  Buffer buf;
  buf.data_ = static_cast<uint8_t*>(data);
  buf.size_ = bytes;
  buf.page_bytes_ = page;
  buf.gpu_bytes_ = gpu_bytes;
  // Deterministic simulated virtual address: a never-reused bump pointer
  // with the same alignment as the host storage. TLB range ids derive from
  // this address, so simulated counters are a pure function of the
  // allocation sequence, independent of host heap/mmap layout (and thus
  // identical across runs and executor thread counts).
  buf.sim_addr_ = util::AlignUp(next_sim_addr_, align);
  next_sim_addr_ = buf.sim_addr_ + padded;
  buf.placement_ = placement;
  buf.owner_ = this;
  if (observer_ != nullptr) observer_->OnAlloc(buf);
  return buf;
}

util::StatusOr<Buffer> Allocator::AllocateGpu(uint64_t bytes) {
  return AllocateImpl(bytes, Placement::AllGpu());
}

util::StatusOr<Buffer> Allocator::AllocateCpu(uint64_t bytes) {
  return AllocateImpl(bytes, Placement::AllCpu());
}

util::StatusOr<Buffer> Allocator::AllocateInterleaved(uint64_t bytes,
                                                      uint64_t gpu_bytes) {
  if (gpu_bytes == 0) return AllocateCpu(bytes);
  if (gpu_bytes >= bytes) return AllocateGpu(bytes);

  // Choose the smallest integer ratio g:c with g+c <= 64 approximating
  // gpu_bytes/bytes from below (never overshooting the GPU budget), e.g.
  // one GPU page after every two CPU pages.
  double frac = static_cast<double>(gpu_bytes) / static_cast<double>(bytes);
  uint32_t best_g = 0, best_c = 1;
  double best_err = 1.0;
  for (uint32_t total = 2; total <= 64; ++total) {
    uint32_t g = static_cast<uint32_t>(frac * static_cast<double>(total));
    if (g == 0 || g >= total) continue;
    double err = frac - static_cast<double>(g) / total;
    if (err >= 0.0 && err < best_err - 1e-12) {
      best_err = err;
      best_g = g;
      best_c = total - g;
    }
  }
  if (best_g == 0) return AllocateCpu(bytes);
  Placement placement{best_g, best_c};
  return AllocateImpl(bytes, placement);
}

void Allocator::Free(Buffer& buffer) {
  if (buffer.data_ == nullptr) return;
  CHECK(buffer.owner_ == this);
  if (observer_ != nullptr) observer_->OnFree(buffer);
  uint64_t padded = util::AlignUp(buffer.size_, buffer.page_bytes_);
  gpu_used_ -= buffer.gpu_bytes_;
  cpu_used_ -= padded - buffer.gpu_bytes_;
  --live_buffers_;
  FreeHostBlock(buffer.data_);
  buffer.data_ = nullptr;
  buffer.size_ = 0;
  buffer.gpu_bytes_ = 0;
  buffer.owner_ = nullptr;
}

}  // namespace triton::mem
