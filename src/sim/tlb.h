// GPU address-translation simulation (Section 3.4.2 of the paper).
//
// The GPU's shared L2 TLB is modelled as a set-associative cache over
// *translation ranges* (32 MiB each on the real machine: 16 physically
// adjacent 2 MiB pages coalesced during one page-table walk). Accesses to
// CPU-memory pages that miss the L2 TLB become IOMMU translation requests;
// the IOMMU's own cache (the paper's speculative "L3 TLB*") is a second
// set-associative level. Requests that miss both require a full page-table
// walk by one of the IOMMU's 12 parallel walkers.
//
// Kernels replay their actual page-access streams through this simulator,
// so miss rates — and through them the fanout cliffs of Figures 13/14/18 —
// are emergent properties of the algorithms' address patterns.

#ifndef TRITON_SIM_TLB_H_
#define TRITON_SIM_TLB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/hw_spec.h"
#include "sim/perf_counters.h"
#include "util/bits.h"
#include "util/logging.h"

namespace triton::sim {

/// Multiplicative hash of a translation range id. Every set-associative
/// level picks its set from the bits of this hash above bit 31.
inline uint64_t RangeHash(uint64_t range_id) {
  return range_id * 0x9e3779b97f4a7c15ULL;
}

/// One set-associative translation cache level.
///
/// Capacity is expressed as covered bytes; each entry covers `range_bytes`.
/// Lookups are by byte address; replacement is per-set LRU.
class TranslationCache {
 public:
  /// Creates a cache covering `coverage_bytes` with entries spanning
  /// `range_bytes` each. `ways` is the set associativity. With `shards` > 1
  /// the object is one shard of that cache: it holds the sets whose index
  /// has one fixed value in its low log2(shards) bits, and must only see
  /// addresses that map to them (TlbSimulator routes them). `shards` must
  /// be a power of two no larger than NumSets().
  TranslationCache(uint64_t coverage_bytes, uint64_t range_bytes,
                   uint32_t ways = 8, uint32_t shards = 1);

  /// Sets of an unsharded cache of this shape (a power of two).
  static uint64_t NumSets(uint64_t coverage_bytes, uint64_t range_bytes,
                          uint32_t ways);

  /// Looks up the range containing `addr`; inserts it on miss.
  /// Returns true on hit. Defined inline: this is the innermost call of
  /// every simulated memory access (hundreds of millions per bench), and
  /// the set probe loop is small enough that call overhead dominates it.
  bool Access(uint64_t addr) {
    ++lookups_;
    ++clock_;
    const uint64_t range_id = range_.Divide(addr);
    // Mix bits so contiguous ranges spread over sets.
    uint64_t set = (RangeHash(range_id) >> set_shift_) & (num_sets_ - 1);
    uint64_t base = set * ways_;
    uint64_t tag = range_id + 1;

    uint32_t victim = 0;
    uint64_t victim_stamp = UINT64_MAX;
    for (uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == tag) {
        stamp_[base + w] = clock_;
        return true;
      }
      if (stamp_[base + w] < victim_stamp) {
        victim_stamp = stamp_[base + w];
        victim = w;
      }
    }
    ++misses_;
    tags_[base + victim] = tag;
    stamp_[base + victim] = clock_;
    return false;
  }

  /// Invalidates all entries (the CUDA runtime flushes GPU TLBs at kernel
  /// launch; mprotect flushes the IOTLB).
  void Flush();

  uint64_t num_entries() const { return num_sets_ * ways_; }
  uint64_t range_bytes() const { return range_.value(); }
  uint64_t lookups() const { return lookups_; }
  uint64_t misses() const { return misses_; }

 private:
  /// Unused words at the end of each array: one host cache line, so that
  /// arrays allocated one after another (a TlbSimulator's shards, which
  /// different threads write) never share a line that both write.
  static constexpr uint64_t kPadWords = util::kCacheLineBytes / 8;

  util::Divisor range_;
  uint32_t ways_;
  uint64_t num_sets_;  // power of two
  // The set index is taken from the range hash above this bit: 32, plus
  // log2(shards) bits that name the shard.
  uint32_t set_shift_;
  // tags_[set * ways + way]: range id + 1 (0 = invalid).
  std::vector<uint64_t> tags_;
  // stamp_[set * ways + way]: logical timestamp of last use. LRU compares
  // stamps within one set only, so a shard's own clock picks the victims
  // that one clock over the whole cache would.
  std::vector<uint64_t> stamp_;
  uint64_t clock_ = 0;
  uint64_t lookups_ = 0;
  uint64_t misses_ = 0;
};

/// Which memory pool a translated page belongs to.
enum class PageLocation { kGpuMem, kCpuMem };

/// Outcome of one translated access, with the latency the paper measures
/// for that outcome (Figure 7).
struct TranslationResult {
  /// True if the GPU L2 TLB hit.
  bool l2_hit = false;
  /// For CPU-memory L2 misses: true if the "L3 TLB*" layer hit (no IOMMU
  /// request generated).
  bool iotlb_hit = false;
  /// Access latency in seconds for this outcome.
  double latency = 0.0;
};

/// Aggregate outcome of a bulk translation: one Access per translation
/// range covered by a contiguous byte run (see TlbSimulator::TranslateRun).
struct TranslationRunResult {
  /// Ranges translated (== Access calls performed).
  uint64_t accesses = 0;
  /// Sum of the per-access outcome latencies in seconds.
  double latency_sum = 0.0;
};

/// Destination for TLB misses that escalate past block-local levels.
///
/// sim::BlockTlb models the per-SM L1 and shared-slice levels itself and
/// hands full misses to a sink. During serial execution the sink is the
/// Device's TlbSimulator directly; under parallel block execution it is a
/// per-block deferring sink (exec::KernelContext) that logs the escalation.
/// Blocks never touch the shared TlbSimulator: replay lanes replay their
/// logs through it, shard by shard, each shard in block order.
class TlbEscalationSink {
 public:
  virtual ~TlbEscalationSink() = default;

  /// Handles an access that missed every block-local level; see
  /// TlbSimulator::EscalateMiss for the accounting contract. Deferring
  /// sinks return a zero result (callers that defer discard latencies).
  virtual TranslationResult EscalateMiss(uint64_t addr, PageLocation loc,
                                         PerfCounters* counters) = 0;
};

/// What a deferred shared-TLB access does at replay (see TlbLogEntry).
enum class TlbLogKind : uint64_t {
  /// Sequential range translation (ReadSeq/WriteSeq); latency discarded.
  kRange = 0,
  /// Random access or flush; its latency joins the random-access sums.
  kLatency = 1,
  /// Full miss escalated by a block-local BlockTlb (EscalateMiss).
  kEscalation = 2,
};

/// One deferred shared-TLB access packed into 8 bytes: the simulated
/// address in bits 0-60 (simulated addresses start at 2^40 and stay far
/// below 2^61), the kind in bits 61-62 and the pool in bit 63.
inline uint64_t TlbLogEntry(uint64_t addr, PageLocation loc, TlbLogKind kind) {
  DCHECK_LT(addr, uint64_t{1} << 61);
  return addr | static_cast<uint64_t>(kind) << 61 |
         static_cast<uint64_t>(loc == PageLocation::kCpuMem) << 63;
}

/// The address of a TlbLogEntry.
inline uint64_t TlbLogAddr(uint64_t entry) {
  return entry & ((uint64_t{1} << 61) - 1);
}

/// Two-level translation hierarchy: GPU L2 TLB + IOMMU-side cache.
///
/// Its state is cut into shards: every level picks its set from the same
/// range hash, so the low log2(num_shards()) bits of the set index name a
/// shard that owns whole sets at every level, and accesses to different
/// shards never touch the same state. Serial calls (Access, TranslateRun,
/// EscalateMiss) route each access to its shard; replay lanes
/// (exec::KernelContext::ForEachBlock) replay one shard each, concurrently,
/// through ReplayShard. Either way every hit, miss and LRU victim equals
/// that of one unsharded hierarchy fed the same accesses in the same order
/// per shard.
class TlbSimulator : public TlbEscalationSink {
 public:
  /// Most shards the state is cut into; a spec whose smallest level has
  /// fewer sets gets that many.
  static constexpr uint32_t kMaxShards = 8;

  explicit TlbSimulator(const TlbSpec& spec);

  /// Translates an access to `addr` in the given memory pool, updating
  /// `counters` (lookups, misses, IOMMU requests/walks). Returns the
  /// outcome with its latency.
  TranslationResult Access(uint64_t addr, PageLocation loc,
                           PerfCounters* counters);

  /// Bulk translation of the contiguous byte run [addr, addr + size):
  /// performs exactly one Access per translation range the run touches, in
  /// ascending range order — the same sequence the per-access hot loops
  /// would replay — and returns the aggregate. `size` must be non-zero.
  TranslationRunResult TranslateRun(uint64_t addr, uint64_t size,
                                    PageLocation loc, PerfCounters* counters);

  /// Handles an access that already missed the GPU-side TLB levels (used
  /// by BlockTlb, which models those levels itself). For CPU-memory pages
  /// this performs the IOMMU request / IOTLB lookup / walk accounting; for
  /// GPU-memory pages it charges the on-board miss latency.
  TranslationResult EscalateMiss(uint64_t addr, PageLocation loc,
                                 PerfCounters* counters) override;

  /// Flushes the GPU L2 TLB of every shard (happens at each kernel launch).
  void FlushGpuTlb();

  const TlbSpec& spec() const { return spec_; }

  // --- Sharded replay ---

  uint32_t num_shards() const { return shard_mask_ + 1; }

  /// The shard owning the translation range of `addr`.
  uint32_t ShardOf(uint64_t addr) const {
    return ShardOfRange(range_.Divide(addr));
  }
  /// The shard owning translation range `range_id` (addr / range size).
  uint32_t ShardOfRange(uint64_t range_id) const {
    return static_cast<uint32_t>(RangeHash(range_id) >> 32) & shard_mask_;
  }

  /// Replays `count` TlbLogEntry values, all of shard `shard`, in order,
  /// adding the TLB counts to `counters`. Then overwrites log[0, k) with
  /// the outcome codes of the k kLatency entries among them, in order
  /// (see LatencyOf). Threads may replay different shards concurrently.
  void ReplayShard(uint32_t shard, uint64_t* log, size_t count,
                   PerfCounters* counters);

  /// Replays `count` TlbLogEntry values of any shards in order, as the
  /// serial calls would, adding the TLB counts to `counters`. Returns the
  /// kLatency entries' latencies summed in order from zero, and their
  /// number in *latency_entries.
  double Replay(const uint64_t* log, size_t count, PerfCounters* counters,
                uint64_t* latency_entries);

  /// The latency of an outcome code that ReplayShard wrote.
  double LatencyOf(uint64_t outcome) const { return latency_[outcome]; }

 private:
  /// Which latency an access pays (Figure 7).
  enum Outcome : uint8_t {
    kGpuHit,
    kGpuMiss,
    kCpuHit,
    kCpuIotlb,
    kCpuWalk,
    kNumOutcomes
  };

  /// The sets of one shard at every level, with their LRU clocks and hit
  /// counts, on cache lines of their own (so lanes never share a line).
  struct alignas(util::kCacheLineBytes) Shard {
    Shard(const TlbSpec& spec, uint32_t shards);

    Outcome Access(uint64_t addr, PageLocation loc, PerfCounters* counters);
    Outcome EscalateMiss(uint64_t addr, PageLocation loc,
                         PerfCounters* counters);
    /// A translation request arriving at the CPU's IOMMU: counted as an
    /// IOMMU request; an IOTLB hit costs the L3 TLB* latency, a miss is a
    /// full page table walk.
    Outcome IommuAccess(uint64_t addr, PerfCounters* counters);

    TranslationCache l2;
    // The 32 GiB "L3 TLB*" layer of Figure 7b. The paper's IOMMU counters
    // show that accesses within this reach do not generate IOMMU requests,
    // so it is modelled GPU-side; it survives kernel launches.
    TranslationCache l3;
    // IOMMU-side IOTLB: requests that hit here are counted but avoid the
    // full page table walk.
    TranslationCache iommu_iotlb;
  };

  TranslationResult Result(Outcome outcome) const;

  /// Replays one TlbLogEntry in `shard`, which owns its address; returns
  /// its outcome if it is a kLatency entry, else kNumOutcomes.
  static Outcome ReplayEntry(Shard& shard, uint64_t entry,
                             PerfCounters* counters);

  TlbSpec spec_;
  util::Divisor range_;
  uint32_t shard_mask_;
  double latency_[kNumOutcomes];
  std::vector<Shard> shards_;
};

}  // namespace triton::sim

#endif  // TRITON_SIM_TLB_H_
