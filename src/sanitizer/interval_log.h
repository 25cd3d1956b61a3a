// IntervalLog: the DeviceSanitizer's per-allocation write-coverage shadow.
//
// A union of half-open byte intervals kept as a flat, append-mostly log
// rather than a balanced tree. Kernels write in streams — sequential
// stores, flush bursts, one block's partition after another's — so most
// intervals start inside or right after the previous one and just extend
// the last entry. Anything else is appended; the log is sorted and
// coalesced in place only when a query needs it or when it has doubled
// since the last compaction, which bounds memory at O(disjoint intervals)
// and amortizes the sort over the appends that grew it.

#ifndef TRITON_SANITIZER_INTERVAL_LOG_H_
#define TRITON_SANITIZER_INTERVAL_LOG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace triton::sanitizer {

class IntervalLog {
 public:
  /// Adds [begin, end) to the union; empty or reversed intervals are
  /// ignored.
  void Add(uint64_t begin, uint64_t end);

  /// Appends every entry of `other` (union is order-independent) without
  /// sorting or compacting, and leaves `other` empty. An empty log adopts
  /// `other`'s storage.
  void Append(IntervalLog&& other);

  /// Sorts the log and coalesces overlapping and adjacent intervals, so
  /// it holds the union as disjoint, non-adjacent intervals in ascending
  /// order. A no-op when the log is already in that form.
  void Normalize();

  /// The part of this union not covered by `cover`, as a normalized log.
  /// Both logs must be normalized.
  IntervalLog Minus(const IntervalLog& cover) const;

  /// Bytes of Minus(cover), counted in the same sweep without building it.
  /// Both logs must be normalized.
  uint64_t UncoveredBy(const IntervalLog& cover) const;

  /// Bytes in the union. The log must be normalized.
  uint64_t TotalBytes() const;

  /// True when both logs hold the same entries in the same order, so the
  /// same union; no sort. Two logs built by the same sequence of Adds
  /// always compare equal.
  bool SameEntries(const IntervalLog& other) const {
    return log_ == other.log_;
  }

  /// True when the union is empty.
  bool empty() const { return log_.empty(); }

  /// Entries currently held. A normalized log holds exactly its disjoint
  /// intervals; otherwise at most 2 * max(entries after the last
  /// compaction, kMinCompactEntries).
  size_t entries() const { return log_.size(); }

 private:
  /// Compaction never runs below this many entries, so tiny logs are
  /// not re-sorted on every out-of-order append.
  static constexpr size_t kMinCompactEntries = 64;

  /// Calls fn(begin, end) for each maximal interval of this union outside
  /// `cover`, in ascending order. Both logs must be normalized.
  template <typename Fn>
  void ForEachUncovered(const IntervalLog& cover, Fn fn) const;

  std::vector<std::pair<uint64_t, uint64_t>> log_;  // [begin, end)
  /// True when log_ is sorted, disjoint and non-adjacent.
  bool normalized_ = true;
  /// log_.size() right after the last Normalize.
  size_t normalized_entries_ = 0;
};

}  // namespace triton::sanitizer

#endif  // TRITON_SANITIZER_INTERVAL_LOG_H_
