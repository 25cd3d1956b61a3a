#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/device.h"
#include "mem/allocator.h"
#include "mem/buffer.h"
#include "sanitizer/sanitizer.h"
#include "sim/hw_spec.h"
#include "util/units.h"

namespace triton::mem {
namespace {

using sim::HwSpec;
using sim::PageLocation;
using util::kKiB;
using util::kMiB;

class AllocatorTest : public ::testing::Test {
 protected:
  // Scale 64: GPU capacity 256 MiB, page 32 KiB.
  HwSpec hw_ = HwSpec::Ac922NvLink().Scaled(64);
  Allocator alloc_{hw_};
};

TEST_F(AllocatorTest, GpuAllocationTracksUsage) {
  auto buf = alloc_.AllocateGpu(1 * kMiB);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(alloc_.gpu_used(), 1 * kMiB);
  EXPECT_TRUE(buf->valid());
  EXPECT_EQ(buf->size(), 1 * kMiB);
  EXPECT_EQ(buf->GpuBytes(), 1 * kMiB);
  alloc_.Free(*buf);
  EXPECT_EQ(alloc_.gpu_used(), 0u);
}

TEST_F(AllocatorTest, GpuCapacityEnforced) {
  auto big = alloc_.AllocateGpu(alloc_.gpu_capacity() + 1);
  EXPECT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), util::StatusCode::kOutOfMemory);

  auto exact = alloc_.AllocateGpu(alloc_.gpu_capacity());
  ASSERT_TRUE(exact.ok());
  auto one_more = alloc_.AllocateGpu(1);
  EXPECT_FALSE(one_more.ok());
  alloc_.Free(*exact);
}

TEST_F(AllocatorTest, CpuAllocationDoesNotTouchGpuBudget) {
  auto buf = alloc_.AllocateCpu(8 * kMiB);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(alloc_.gpu_used(), 0u);
  EXPECT_GE(alloc_.cpu_used(), 8 * kMiB);
  EXPECT_EQ(buf->GpuBytes(), 0u);
  alloc_.Free(*buf);
}

TEST_F(AllocatorTest, ZeroByteAllocationRejected) {
  EXPECT_FALSE(alloc_.AllocateGpu(0).ok());
}

TEST_F(AllocatorTest, BufferIsPageAligned) {
  auto buf = alloc_.AllocateCpu(100);
  ASSERT_TRUE(buf.ok());
  uint64_t align = std::min<uint64_t>(hw_.tlb.page_bytes, 1 * kMiB);
  EXPECT_EQ(buf->base_addr() % align, 0u);
  alloc_.Free(*buf);
}

TEST_F(AllocatorTest, MoveTransfersOwnership) {
  auto buf = alloc_.AllocateGpu(1 * kMiB);
  ASSERT_TRUE(buf.ok());
  Buffer moved = std::move(*buf);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(buf->valid());
  EXPECT_EQ(alloc_.gpu_used(), 1 * kMiB);
  alloc_.Free(moved);
  EXPECT_EQ(alloc_.gpu_used(), 0u);
}

TEST_F(AllocatorTest, DestructionFreesAutomatically) {
  {
    auto buf = alloc_.AllocateGpu(2 * kMiB);
    ASSERT_TRUE(buf.ok());
    EXPECT_EQ(alloc_.gpu_used(), 2 * kMiB);
  }
  EXPECT_EQ(alloc_.gpu_used(), 0u);
}

TEST_F(AllocatorTest, UniformBuffersReportUniformLocation) {
  auto gpu = alloc_.AllocateGpu(4 * kMiB);
  auto cpu = alloc_.AllocateCpu(4 * kMiB);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(cpu.ok());
  for (uint64_t off = 0; off < 4 * kMiB; off += 512 * kKiB) {
    EXPECT_EQ(gpu->LocationOf(off), PageLocation::kGpuMem);
    EXPECT_EQ(cpu->LocationOf(off), PageLocation::kCpuMem);
  }
  alloc_.Free(*gpu);
  alloc_.Free(*cpu);
}

TEST_F(AllocatorTest, InterleavedSplitsByRequestedFraction) {
  // One third GPU: pattern should be ~1 GPU page per 2 CPU pages.
  uint64_t total = 12 * kMiB;
  auto buf = alloc_.AllocateInterleaved(total, total / 3);
  ASSERT_TRUE(buf.ok());
  double frac = static_cast<double>(buf->GpuBytes()) / buf->size();
  EXPECT_NEAR(frac, 1.0 / 3.0, 0.05);
  EXPECT_EQ(alloc_.gpu_used(), buf->GpuBytes());

  // Pages of both kinds are spread through the array, not clustered: check
  // that both locations appear in every quarter of the buffer.
  uint64_t quarter = buf->size() / 4;
  for (int q = 0; q < 4; ++q) {
    bool saw_gpu = false, saw_cpu = false;
    for (uint64_t off = q * quarter; off < (q + 1) * quarter;
         off += buf->page_bytes()) {
      if (buf->LocationOf(off) == PageLocation::kGpuMem) saw_gpu = true;
      else saw_cpu = true;
    }
    EXPECT_TRUE(saw_gpu) << "quarter " << q;
    EXPECT_TRUE(saw_cpu) << "quarter " << q;
  }
  alloc_.Free(*buf);
}

TEST_F(AllocatorTest, InterleavedDegeneratesToUniform) {
  auto all_cpu = alloc_.AllocateInterleaved(4 * kMiB, 0);
  ASSERT_TRUE(all_cpu.ok());
  EXPECT_EQ(all_cpu->GpuBytes(), 0u);
  auto all_gpu = alloc_.AllocateInterleaved(4 * kMiB, 4 * kMiB);
  ASSERT_TRUE(all_gpu.ok());
  EXPECT_EQ(all_gpu->GpuBytes(), 4 * kMiB);
  alloc_.Free(*all_cpu);
  alloc_.Free(*all_gpu);
}

TEST_F(AllocatorTest, InterleavedGpuPortionCountsAgainstCapacity) {
  uint64_t cap = alloc_.gpu_capacity();
  // Asking for more GPU bytes than capacity within an interleaved buffer
  // must fail.
  auto too_big = alloc_.AllocateInterleaved(4 * cap, 2 * cap);
  EXPECT_FALSE(too_big.ok());
}

// --- Query arenas: checkpoint/rewind of the simulated address space ---

TEST_F(AllocatorTest, ArenaRewindRestoresSimulatedAddresses) {
  const uint64_t arena1 = alloc_.BeginArena();
  auto a = alloc_.AllocateCpu(1 * kMiB);
  ASSERT_TRUE(a.ok());
  const uint64_t addr1 = a->base_addr();
  alloc_.Free(*a);
  ASSERT_TRUE(alloc_.EndArena(arena1).ok());

  // A second arena generation replays the exact same simulated addresses:
  // that is what makes per-query TLB physics history-independent.
  const uint64_t arena2 = alloc_.BeginArena();
  auto b = alloc_.AllocateCpu(1 * kMiB);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->base_addr(), addr1);
  alloc_.Free(*b);
  ASSERT_TRUE(alloc_.EndArena(arena2).ok());
  EXPECT_EQ(alloc_.open_arenas(), 0u);
}

TEST_F(AllocatorTest, ArenaDoubleReleaseFailsInsteadOfCorrupting) {
  const uint64_t arena = alloc_.BeginArena();
  ASSERT_TRUE(alloc_.EndArena(arena).ok());

  // The bump pointer was already rewound once; a second release must not
  // silently rewind it again under whoever allocated since.
  auto since = alloc_.AllocateCpu(1 * kMiB);
  ASSERT_TRUE(since.ok());
  const uint64_t addr_before = since->base_addr();

  util::Status again = alloc_.EndArena(arena);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), util::StatusCode::kFailedPrecondition);

  auto after = alloc_.AllocateCpu(1 * kMiB);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->base_addr(), addr_before);  // pointer untouched
  alloc_.Free(*since);
  alloc_.Free(*after);
}

TEST_F(AllocatorTest, ArenaWithLiveBuffersRefusesToClose) {
  const uint64_t arena = alloc_.BeginArena();
  auto live = alloc_.AllocateCpu(1 * kMiB);
  ASSERT_TRUE(live.ok());

  // Rewinding under a live buffer would hand its addresses to the next
  // allocation — the use-after-release this API exists to prevent.
  util::Status st = alloc_.EndArena(arena);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(alloc_.open_arenas(), 1u);

  alloc_.Free(*live);
  EXPECT_TRUE(alloc_.EndArena(arena).ok());
}

TEST_F(AllocatorTest, ArenaOutOfOrderReleaseFails) {
  const uint64_t outer = alloc_.BeginArena();
  const uint64_t inner = alloc_.BeginArena();
  util::Status st = alloc_.EndArena(outer);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(alloc_.EndArena(inner).ok());
  EXPECT_TRUE(alloc_.EndArena(outer).ok());
}

TEST_F(AllocatorTest, ArenaUnknownIdFails) {
  EXPECT_EQ(alloc_.EndArena(12345).code(),
            util::StatusCode::kFailedPrecondition);
}

// The sanitizer is the allocator's observer inside a Device: arena misuse
// must surface as a DeviceSanitizer diagnostic, not just a status.
TEST(ArenaSanitizerTest, ViolationsAreReportedToTheSanitizer) {
  sim::HwSpec hw = HwSpec::Ac922NvLink().Scaled(64);
  exec::Device dev(hw, /*sanitize=*/true);
  ASSERT_NE(dev.sanitizer(), nullptr);
  Allocator& alloc = dev.allocator();

  // Live buffer at close → kArenaLiveness naming the arena.
  const uint64_t arena = alloc.BeginArena();
  auto live = alloc.AllocateCpu(64 * kKiB);
  ASSERT_TRUE(live.ok());
  EXPECT_FALSE(alloc.EndArena(arena).ok());
  {
    std::vector<sanitizer::Violation> vs = dev.sanitizer()->TakeViolations();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs.front().code, sanitizer::ViolationCode::kArenaLiveness)
        << vs.front().message;
  }

  // Clean close after the free → no violation.
  alloc.Free(*live);
  EXPECT_TRUE(alloc.EndArena(arena).ok());
  EXPECT_TRUE(dev.sanitizer()->TakeViolations().empty());

  // Double release → kArenaLiveness again.
  EXPECT_FALSE(alloc.EndArena(arena).ok());
  {
    std::vector<sanitizer::Violation> vs = dev.sanitizer()->TakeViolations();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs.front().code, sanitizer::ViolationCode::kArenaLiveness)
        << vs.front().message;
  }
}

// LocationOf answers uniform buffers without arithmetic and finds the page
// by a shift when the page size is a power of two (scale 64: 32 KiB), by a
// division otherwise (scale 96: 21845 B). Either way it must name the page
// that offset / page_bytes names, at both ends of every page.
class LocationOfTest : public ::testing::TestWithParam<double> {};

TEST_P(LocationOfTest, MatchesPagePlacementAtEveryPageEdge) {
  Allocator alloc(HwSpec::Ac922NvLink().Scaled(GetParam()));
  const uint64_t page = alloc.page_bytes();
  const uint64_t bytes = 40 * page + page / 3;  // a ragged last page
  auto buf = alloc.AllocateInterleaved(bytes, bytes / 3);
  ASSERT_TRUE(buf.ok());
  ASSERT_EQ(buf->page_bytes(), page);
  const Placement& placement = buf->placement();
  ASSERT_GT(placement.gpu_pages_per_group, 0u);
  ASSERT_GT(placement.cpu_pages_per_group, 0u);
  for (uint64_t first = 0; first < buf->size(); first += page) {
    const uint64_t last = std::min(first + page, buf->size()) - 1;
    for (uint64_t off : {first, last}) {
      EXPECT_EQ(buf->LocationOf(off), placement.LocationOfPage(off / page))
          << "offset " << off;
    }
  }
  auto gpu = alloc.AllocateGpu(3 * page);
  auto cpu = alloc.AllocateCpu(3 * page);
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(cpu.ok());
  for (uint64_t off : {uint64_t{0}, page - 1, page, 3 * page - 1}) {
    EXPECT_EQ(gpu->LocationOf(off), PageLocation::kGpuMem);
    EXPECT_EQ(cpu->LocationOf(off), PageLocation::kCpuMem);
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, LocationOfTest,
                         ::testing::Values(64.0, 96.0));

TEST(PlacementTest, LocationPattern) {
  Placement p{1, 2};  // 1 GPU page then 2 CPU pages per group
  EXPECT_EQ(p.LocationOfPage(0), PageLocation::kGpuMem);
  EXPECT_EQ(p.LocationOfPage(1), PageLocation::kCpuMem);
  EXPECT_EQ(p.LocationOfPage(2), PageLocation::kCpuMem);
  EXPECT_EQ(p.LocationOfPage(3), PageLocation::kGpuMem);
}

TEST(PlacementTest, DataIsWritableAcrossWholeBuffer) {
  sim::HwSpec hw = HwSpec::Ac922NvLink().Scaled(64);
  Allocator alloc(hw);
  auto buf = alloc.AllocateInterleaved(8 * kMiB, 2 * kMiB);
  ASSERT_TRUE(buf.ok());
  // Functional memory is contiguous host memory regardless of placement.
  uint64_t* p = buf->as<uint64_t>();
  uint64_t n = buf->size() / sizeof(uint64_t);
  for (uint64_t i = 0; i < n; i += 997) p[i] = i;
  for (uint64_t i = 0; i < n; i += 997) EXPECT_EQ(p[i], i);
  alloc.Free(*buf);
}

}  // namespace
}  // namespace triton::mem
