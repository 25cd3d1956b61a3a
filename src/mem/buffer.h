// Simulated device/host memory buffers.
//
// All buffers live in host RAM (the simulation is functional), but each
// buffer carries a *placement map* declaring which simulated pool — GPU
// on-board memory or CPU memory — every page belongs to. Placement drives
// cost accounting: accesses to CPU-memory pages cross the simulated
// interconnect and the IOMMU, accesses to GPU-memory pages use on-board
// bandwidth and the GPU-memory TLB path.
//
// Three placements exist:
//   - uniform GPU      (cudaMalloc equivalent)
//   - uniform CPU      (pageable host memory, 2 MiB huge pages)
//   - interleaved      (Section 5.3: GPU pages interleaved with CPU pages
//                       into one contiguous virtual array, in proportion to
//                       the physical allocation sizes)

#ifndef TRITON_MEM_BUFFER_H_
#define TRITON_MEM_BUFFER_H_

#include <cstdint>
#include <memory>

#include "sim/tlb.h"
#include "util/bits.h"
#include "util/logging.h"

namespace triton::mem {

class Allocator;

/// Page-placement pattern of a buffer.
struct Placement {
  /// Pages per interleave group that are GPU-resident.
  uint32_t gpu_pages_per_group = 0;
  /// Pages per interleave group that are CPU-resident.
  uint32_t cpu_pages_per_group = 1;

  static Placement AllGpu() { return {1, 0}; }
  static Placement AllCpu() { return {0, 1}; }

  uint32_t group_size() const {
    return gpu_pages_per_group + cpu_pages_per_group;
  }

  /// Location of the `page_index`-th page. Within each group the GPU pages
  /// come first, evenly spreading GPU pages through the array.
  sim::PageLocation LocationOfPage(uint64_t page_index) const {
    uint64_t in_group = page_index % group_size();
    return in_group < gpu_pages_per_group ? sim::PageLocation::kGpuMem
                                          : sim::PageLocation::kCpuMem;
  }
};

/// A move-only allocation with a placement map.
///
/// data() is valid host memory of size() bytes; LocationOf() maps byte
/// offsets to simulated pools at page granularity.
class Buffer {
 public:
  Buffer() = default;
  ~Buffer();

  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

  /// Typed view of the buffer contents.
  template <typename T>
  T* as() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* as() const {
    return reinterpret_cast<const T*>(data_);
  }

  /// Simulated page size this buffer was allocated with.
  uint64_t page_bytes() const { return page_.value(); }

  const Placement& placement() const { return placement_; }

  /// Pool owning the page containing byte `offset`. Every random access
  /// asks this, so uniform placements answer without arithmetic and a
  /// power-of-two page size takes a shift instead of the division.
  sim::PageLocation LocationOf(uint64_t offset) const {
    DCHECK_LT(offset, size_);
    if (placement_.cpu_pages_per_group == 0) return sim::PageLocation::kGpuMem;
    if (placement_.gpu_pages_per_group == 0) return sim::PageLocation::kCpuMem;
    return placement_.LocationOfPage(page_.Divide(offset));
  }

  /// Virtual base address used for TLB simulation and traffic accounting.
  /// Allocator-owned buffers get a *deterministic* simulated address (a
  /// bump pointer per Allocator), so TLB set conflicts — and through them
  /// every performance counter — depend only on the allocation sequence,
  /// never on where the host heap happened to place the backing storage.
  uint64_t base_addr() const {
    return sim_addr_ != 0 ? sim_addr_ : reinterpret_cast<uint64_t>(data_);
  }

  /// Bytes of this buffer resident in GPU memory.
  uint64_t GpuBytes() const { return gpu_bytes_; }

 private:
  friend class Allocator;

  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  /// Page size.
  util::Divisor page_{1};
  uint64_t gpu_bytes_ = 0;
  /// Simulated virtual address; 0 = fall back to the host pointer.
  uint64_t sim_addr_ = 0;
  Placement placement_ = Placement::AllCpu();
  Allocator* owner_ = nullptr;
};

}  // namespace triton::mem

#endif  // TRITON_MEM_BUFFER_H_
