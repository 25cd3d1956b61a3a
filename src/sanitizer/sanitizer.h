// DeviceSanitizer: a compute-sanitizer-style checking layer for the
// simulated GPU.
//
// The whole reproduction rests on one invariant: kernels do *real* work on
// host memory and *separately* account the simulated traffic
// (KernelContext::ReadSeq/WriteRand/Flush). Any drift between functional
// bytes and accounted bytes silently corrupts every figure read from the
// performance counters (Figures 14, 15, 18). On real hardware the paper's
// authors had cuda-memcheck / compute-sanitizer to catch scratchpad
// overflows, races on SWWC buffer locks and barrier divergence; this layer
// is the simulator's equivalent. It maintains shadow state per mem::Buffer
// and per scratchpad arena and checks, at Device::Launch granularity:
//
//   1. Accounting completeness — functional writes performed through the
//      checked-access API (KernelContext::Store<T>/StoreRun<T>) must be
//      covered by accounted traffic, byte for byte, and accounted
//      regions must lie inside live allocations (catches out-of-bounds
//      flushes such as a cursor overrunning a partition extent).
//   2. Scratchpad memcheck — bounds and use-before-init on the per-block
//      arena (catches SwwcBufferTuples sizing bugs at extreme fanouts).
//   3. Warp racecheck — two lanes of different warps writing the same
//      scratchpad word between synchronization points, and lock-protocol
//      violations (flush of a buffer not held by the flushing leader) in
//      the Shared/Hierarchical partitioners.
//   4. Launch-invariant lint — counter sanity: tuples processed equals the
//      declared input size, issue slots are non-zero, and accounted bytes
//      cover at least tuples x width.
//
// Enablement: benches run with the sanitizer off (zero overhead; the
// checked accessors compile to raw stores). Tests link a translation unit
// that calls SetDefaultEnabled(true), and the TRITON_SANITIZER environment
// variable (0/1) overrides both. Violations are collected per Device and
// reported as util::Status with kernel/block/warp/partition provenance;
// Device aborts at destruction if violations were left unconsumed, so every
// existing partition/join test doubles as an accounting audit.

#ifndef TRITON_SANITIZER_SANITIZER_H_
#define TRITON_SANITIZER_SANITIZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/allocator.h"
#include "mem/buffer.h"
#include "sanitizer/interval_log.h"
#include "sim/perf_counters.h"
#include "util/status.h"

namespace triton::sanitizer {

/// Category of a sanitizer finding. Each negative test in
/// tests/sanitizer_test.cc asserts one specific code.
enum class ViolationCode {
  /// Accounted traffic outside any live allocation, or past the extent of
  /// the allocation it starts in (e.g. a flush overrunning the output).
  kAccountedOutOfBounds,
  /// A functional write through the checked API was not covered by
  /// accounted write traffic at launch end.
  kUnaccountedWrite,
  /// Scratchpad arena access out of bounds, or an arena larger than the
  /// hardware scratchpad capacity.
  kScratchpadOutOfBounds,
  /// Scratchpad word read before any warp initialized it.
  kScratchpadUseBeforeInit,
  /// Two different warps wrote the same scratchpad word with no
  /// synchronization point in between.
  kScratchpadRace,
  /// SWWC lock-protocol violation: buffer flushed by a warp that does not
  /// hold the buffer lock, double acquire, or release by a non-holder.
  kLockProtocol,
  /// Launch counters failed a sanity invariant (tuple count mismatch, zero
  /// issue slots, accounted bytes below tuples x width).
  kCounterInvariant,
  /// Query-arena lifecycle violation: an arena released twice, released
  /// out of order, or released while buffers allocated inside it are still
  /// live (mem::Allocator::EndArena refuses and reports here instead of
  /// silently corrupting the bump pointer).
  kArenaLiveness,
};

/// Returns a stable name for a violation code ("AccountedOutOfBounds", ...).
const char* ViolationCodeName(ViolationCode code);

/// One sanitizer finding with execution provenance.
struct Violation {
  ViolationCode code = ViolationCode::kCounterInvariant;
  /// Kernel name of the launch the violation occurred in ("<none>" when
  /// raised outside a launch).
  std::string kernel;
  uint32_t block = 0;
  uint32_t warp = 0;
  /// Radix partition being flushed, -1 when not applicable.
  int64_t partition = -1;
  /// Fully formatted message including the provenance prefix.
  std::string message;

  /// Renders the violation as a FailedPrecondition status.
  util::Status ToStatus() const;
};

/// Process-wide default enablement: SetDefaultEnabled(true) is called from
/// a translation unit linked into every test binary; the TRITON_SANITIZER
/// environment variable (0/1) overrides it in either direction.
bool DefaultEnabled();
void SetDefaultEnabled(bool enabled);

/// Per-Device checking engine. Owned by exec::Device when enabled; all
/// hooks are no-ops at call sites when the device has no sanitizer.
class DeviceSanitizer : public mem::AllocationObserver {
 public:
  DeviceSanitizer() = default;
  // Forks and the lookup cache hold pointers into a sanitizer.
  DeviceSanitizer(const DeviceSanitizer&) = delete;
  DeviceSanitizer& operator=(const DeviceSanitizer&) = delete;

  // --- Allocator liveness callbacks (mem::AllocationObserver) ---

  void OnAlloc(const mem::Buffer& buffer) override;
  void OnFree(const mem::Buffer& buffer) override;

  // --- Arena lifecycle callbacks (mem::AllocationObserver) ---

  /// Tracks the open frame so OnArenaEnd can audit liveness.
  void OnArenaBegin(uint64_t id, uint64_t base_addr) override;
  /// Cross-checks the allocator's own liveness accounting: any allocation
  /// still live at or above the frame's base address is a use-after-release
  /// hazard and reports kArenaLiveness.
  void OnArenaEnd(uint64_t id) override;
  /// Records the allocator's refusal as a kArenaLiveness violation.
  void OnArenaViolation(uint64_t id, const std::string& message) override;

  // --- Launch lifecycle (driven by exec::Device) ---

  /// Opens the shadow state for one kernel launch.
  void BeginLaunch(const std::string& kernel);

  /// Closes the launch: runs the accounting-completeness check over every
  /// buffer written through the checked API and the counter lint, then
  /// drops the per-launch shadow state.
  void EndLaunch(const sim::PerfCounters& counters);

  // --- Parallel block execution (exec::KernelContext::ForEachBlock) ---

  /// Creates a per-block child. It copies the launch scope and searches
  /// this sanitizer's live-allocation map, which must stay unchanged until
  /// the child is merged (the allocator may not be used inside a block).
  /// Shadow logs and violations start empty. The child is not an
  /// allocation observer; finish it with FinishBlock on the block's thread
  /// and merge it back with MergeBlock.
  std::unique_ptr<DeviceSanitizer> Fork() const;

  /// Runs the accounting-completeness check of one block on a child, on
  /// the block's own thread: for each allocation the block stored to, keeps
  /// the residue, its stores that its own accounted writes do not cover.
  /// Every block's accounted writes are part of the launch's, so the
  /// launch's uncovered bytes are exactly those of its own stores plus
  /// every residue (EndLaunch).
  void FinishBlock();

  /// Folds one finished child back into this sanitizer: violations are
  /// appended (keeping the child's block/warp provenance and program
  /// order), and its shadow logs and residues are moved over unsorted.
  /// Must be called in block order so violation order, and therefore test
  /// output, is bit-identical to serial execution.
  void MergeBlock(DeviceSanitizer& child);

  // --- Execution provenance (drives violation messages) ---

  void set_block(uint32_t block) { scope_.block = block; }
  void set_warp(uint32_t warp) { scope_.warp = warp; }
  void set_partition(int64_t partition) { scope_.partition = partition; }

  // --- Recording hooks ---

  /// Records one accounted access (called from KernelContext::Account).
  /// Checks that [addr, addr+size) lies inside a live allocation.
  void RecordAccounted(uint64_t addr, uint64_t size, bool is_write);

  /// Records one functional write through the checked API.
  void RecordFunctionalWrite(uint64_t addr, uint64_t size);

  /// Declares the launch's expected tuple count and minimum tuple width in
  /// bytes for the counter lint (see ViolationCode::kCounterInvariant).
  void ExpectTuples(uint64_t tuples, uint64_t min_bytes_per_tuple);

  /// Appends a violation of `code`, prefixing the current provenance scope
  /// to `detail`. Exposed for the scratchpad shadow and for tests.
  void Report(ViolationCode code, const std::string& detail);

  /// Reports with an explicit warp (scratchpad/lock checks know the warp
  /// more precisely than the ambient scope).
  void ReportAtWarp(ViolationCode code, uint32_t warp,
                    const std::string& detail);

  // --- Results ---

  const std::vector<Violation>& violations() const { return violations_; }

  /// Removes and returns all collected violations (negative tests consume
  /// their expected findings so Device teardown stays quiet).
  std::vector<Violation> TakeViolations();

  /// OK when no violations were collected; otherwise the first violation
  /// as a FailedPrecondition status.
  util::Status CheckOk() const;

 private:
  friend class ScratchpadShadow;

  /// One live allocation as registered by the allocator.
  struct LiveAllocation {
    uint64_t size = 0;
  };
  using LiveMap = std::map<uint64_t, LiveAllocation>;

  /// One allocation's write intervals within a launch.
  struct WriteLogs {
    /// Recorded on this context: the launch's own, or one block's.
    IntervalLog own;
    /// Moved in by MergeBlock from finished blocks, one unsorted log each.
    std::vector<IntervalLog> blocks;
    /// Stores only: on a block, `own` minus its own accounted writes
    /// (FinishBlock); on the launch, every merged block's residue.
    IntervalLog residue;
  };

  std::string ScopePrefix(uint32_t warp) const;
  /// Returns the live allocation containing `addr`, or null. Remembers its
  /// last answer, since consecutive accesses mostly hit one allocation.
  const LiveMap::value_type* FindAllocation(uint64_t addr);

  struct Scope {
    std::string kernel = "<none>";
    uint32_t block = 0;
    uint32_t warp = 0;
    int64_t partition = -1;
  };

  Scope scope_;
  bool in_launch_ = false;

  /// Live allocations keyed by base address. A fork leaves its own empty
  /// and searches its parent's.
  LiveMap live_;
  const DeviceSanitizer* parent_ = nullptr;
  /// FindAllocation's last answer; reset by OnAlloc and OnFree.
  const LiveMap::value_type* last_found_ = nullptr;

  /// Open arena frames: id -> simulated base address of the frame.
  std::map<uint64_t, uint64_t> open_arenas_;

  // Per-launch shadow state, keyed by allocation base address. At launch
  // end only allocations with stores the launch itself made or a residue
  // are normalized and checked; every other log is dropped unsorted.
  std::unordered_map<uint64_t, WriteLogs> functional_writes_;
  std::unordered_map<uint64_t, WriteLogs> accounted_writes_;

  // Launch lint expectations.
  bool expect_set_ = false;
  uint64_t expected_tuples_ = 0;
  uint64_t expected_min_width_ = 0;

  std::vector<Violation> violations_;
};

/// Shadow state for one thread block's scratchpad arena.
//
/// The partitioning kernels allocate their software-write-combining buffers
/// from the per-block scratchpad; this shadow mirrors that arena word by
/// word. Stores and loads carry the simulated warp id so the racecheck can
/// detect two warps touching the same word between synchronization points;
/// SyncRange models a buffer flush (the flushed region becomes reusable and
/// uninitialized), Barrier models __syncthreads. Buffer locks follow the
/// Shared partitioner's protocol: a flush must be performed by the warp
/// holding the buffer lock (Section 4.2 of the paper).
///
/// All methods are no-ops when constructed with a null sanitizer, so
/// kernels call them unconditionally.
class ScratchpadShadow {
 public:
  /// `bytes` is the arena size the kernel wants; `capacity_bytes` the
  /// hardware scratchpad capacity per block. Oversubscription is itself a
  /// kScratchpadOutOfBounds violation (the SwwcBufferTuples sizing class).
  ScratchpadShadow(DeviceSanitizer* san, uint64_t bytes,
                   uint64_t capacity_bytes);

  /// Records warp `warp` writing [offset, offset+size) of the arena.
  void Store(uint64_t offset, uint64_t size, uint32_t warp) {
    if (san_ == nullptr || size == 0) return;
    if (offset + size > bytes_) {
      ReportOutOfBounds(offset, size, warp, "store");
      return;
    }
    const uint64_t last = (offset + size - 1) / kWordBytes;
    for (uint64_t w = offset / kWordBytes; w <= last; ++w) {
      const int32_t prev = last_writer_[w];
      if (prev >= 0 && static_cast<uint32_t>(prev) != warp) {
        ReportRace(static_cast<uint32_t>(prev), warp, w);
      }
      last_writer_[w] = static_cast<int32_t>(warp);
      initialized_[w] = 1;
    }
  }

  /// Records warp `warp` reading [offset, offset+size) of the arena.
  void Load(uint64_t offset, uint64_t size, uint32_t warp) {
    if (san_ == nullptr || size == 0) return;
    if (offset + size > bytes_) {
      ReportOutOfBounds(offset, size, warp, "load");
      return;
    }
    const uint64_t last = (offset + size - 1) / kWordBytes;
    for (uint64_t w = offset / kWordBytes; w <= last; ++w) {
      if (!initialized_[w]) {
        ReportUseBeforeInit(warp, w);
        return;  // one report per load is enough
      }
    }
  }

  /// Synchronization point covering [offset, offset+size): clears the race
  /// window and the init state (a flushed buffer is logically empty).
  void SyncRange(uint64_t offset, uint64_t size);

  /// Block-wide synchronization point (__syncthreads): clears the race
  /// window everywhere, init state is kept.
  void Barrier();

  /// Warp `warp` acquires buffer lock `lock` (blocking acquire; acquiring
  /// a lock already held by another warp is modelled as waiting, acquiring
  /// a lock already held by the same warp is a violation).
  void AcquireLock(uint32_t lock, uint32_t warp);

  /// Warp `warp` releases buffer lock `lock`.
  void ReleaseLock(uint32_t lock, uint32_t warp);

  /// Declares that warp `warp` flushes the buffer guarded by `lock`; the
  /// flushing leader must hold the lock.
  void NoteFlush(uint32_t lock, uint32_t warp);

 private:
  static constexpr uint64_t kWordBytes = 8;

  // Reports for Store/Load, out of line.
  void ReportOutOfBounds(uint64_t offset, uint64_t size, uint32_t warp,
                         const char* what);
  void ReportRace(uint32_t prev, uint32_t warp, uint64_t word);
  void ReportUseBeforeInit(uint32_t warp, uint64_t word);

  /// The warp holding `lock`, or -1 when it is free.
  int64_t HolderOf(uint32_t lock) const {
    return lock < lock_holder_.size() ? lock_holder_[lock] : -1;
  }

  DeviceSanitizer* san_;  // null => every method is a no-op
  uint64_t bytes_ = 0;
  std::vector<int32_t> last_writer_;  // per word, -1 = none since last sync
  std::vector<uint8_t> initialized_;  // per word
  /// Indexed by lock id (a buffer's partition), grown on acquire: the
  /// holding warp, or -1.
  std::vector<int64_t> lock_holder_;
};

}  // namespace triton::sanitizer

#endif  // TRITON_SANITIZER_SANITIZER_H_
