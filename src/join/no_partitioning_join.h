// GPU no-partitioning hash join (the baseline of Figures 1, 13, 14, 19, 21).
//
// Builds one global hash table over R and probes it with S. The table is
// placed in GPU memory as long as it fits (optionally only a cached
// fraction, Figure 19); anything beyond the GPU capacity spills to CPU
// memory, where every probe becomes a random 16-byte access over the
// interconnect — and, once the table exceeds the GPU TLB reach, nearly
// every access also costs an IOMMU translation. That is the paper's
// performance cliff: with linear probing the 50% load factor doubles the
// table size, blowing the TLB range and collapsing throughput by 400x
// versus perfect hashing (Section 6.2.2).
//
// The table is an NpjTable: Build places and fills it, Probe streams probe
// rows through it any number of times, and Free releases it. The join is
// one build, one probe and a free; serve::SharedBuild keeps one perfect
// table resident and probes it once per request batch, each request one
// segment of the probe rows.
//
// Execution: both phases run as thread blocks over contiguous input
// chunks, in waves, through KernelContext::ForEachBlock: blocks run in any
// order, and each finished block's TLB accesses are replayed in input
// order while later blocks run, so every counter equals a serial run's.
// Probe blocks stage their matches, which are appended in block order. The
// build is split in two steps. Insertion order decides the linear-probing
// layout and the chain order, so one plain loop inserts the rows in input
// order and accounts nothing; the blocks then account each row's accesses,
// which are fixed once the insert has run:
//   - perfect: one write at slot key - 1;
//   - linear probing: reads of slots home .. home + d - 1, then a write of
//     slot home + d, where d is the row's probe distance, which the insert
//     records (every slot in between held an earlier row);
//   - bucket chaining: the node write, then the read and the write of the
//     key's bucket head (its address, not its value).
// The insert of each wave runs alongside the accounting of the previous
// one, as its batch's task. A refused row accounts only its reads: up to
// and including the duplicate's slot under linear probing, none otherwise.
//
// Input contract: probe keys may take any value. Build keys must be
// unique and lie in 1..|R| for kPerfect, and be unique and nonzero for
// kLinearProbing (key 0 marks an empty slot); a violation is refused with
// InvalidArgument naming the first offending row. kBucketChaining accepts
// any build keys, but a materialized result is limited to its rows (|S|
// for the join): more matches than that (repeated build keys) are refused
// with ResourceExhausted.

#ifndef TRITON_JOIN_NO_PARTITIONING_JOIN_H_
#define TRITON_JOIN_NO_PARTITIONING_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "join/common.h"
#include "mem/buffer.h"
#include "util/status.h"

namespace triton::join {

/// Configuration of the no-partitioning join.
struct NoPartitioningJoinConfig {
  HashScheme scheme = HashScheme::kPerfect;
  ResultMode result_mode = ResultMode::kMaterialize;
  /// GPU-memory bytes granted to the hash table (the Figure 19 cache-size
  /// knob). UINT64_MAX places as much of the table in GPU memory as fits.
  uint64_t cache_bytes = UINT64_MAX;
};

/// Size in bytes of the global hash table for `r_tuples` build tuples.
uint64_t NpjTableBytes(HashScheme scheme, uint64_t r_tuples);

/// The no-partitioning join's global hash table, resident on one device
/// between its build and Free; see file comment.
class NpjTable {
 public:
  /// One probe segment's matches and checksum (sum of build + probe
  /// payloads over its matched pairs).
  struct SegmentTotals {
    uint64_t matches = 0;
    uint64_t checksum = 0;
  };

  /// Places the table for `config.scheme` over r, interleaved with as much
  /// in GPU memory as `config.cache_bytes` and the free GPU memory allow (a
  /// materializing join keeps an eighth of the GPU for its result), and
  /// builds it in the kernel "npj_build_<scheme>". Refuses build keys
  /// outside the file comment's contract, freeing the table.
  static util::StatusOr<NpjTable> Build(exec::Device& dev,
                                        const data::Relation& r,
                                        const NoPartitioningJoinConfig& config);

  /// Probes with the rows of s in the kernel "npj_probe_<scheme>". The rows
  /// are cut into consecutive segments ending at `segment_ends` (ascending,
  /// the last one s.rows(); other ends are refused with InvalidArgument
  /// before the launch), and the totals come back per segment. With a
  /// non-null `result`, matched <build, probe> payload pairs are stored
  /// from row 0 in probe order; more matches than `result` holds are
  /// refused with ResourceExhausted.
  util::StatusOr<std::vector<SegmentTotals>> Probe(
      exec::Device& dev, const data::Relation& s,
      const std::vector<uint64_t>& segment_ends, mem::Buffer* result);

  /// Releases the table's memory.
  void Free(exec::Device& dev) { dev.allocator().Free(table_); }

  /// An empty table (no buffer); Build makes the real ones.
  NpjTable() = default;

 private:
  NpjTable(HashScheme scheme, uint64_t build_rows, mem::Buffer table)
      : scheme_(scheme), build_rows_(build_rows), table_(std::move(table)) {}

  HashScheme scheme_ = HashScheme::kPerfect;
  uint64_t build_rows_ = 0;
  mem::Buffer table_;
};

/// No-partitioning hash join; see file comment.
class NoPartitioningJoin {
 public:
  explicit NoPartitioningJoin(NoPartitioningJoinConfig config = {})
      : config_(config) {}

  /// Joins r (build) with s (probe): NpjTable's Build, one Probe over all
  /// of s, and Free. Returns match count, checksum and simulated timing, or
  /// refuses input outside the contract in the file comment.
  util::StatusOr<JoinRun> Run(exec::Device& dev, const data::Relation& r,
                              const data::Relation& s);

  const NoPartitioningJoinConfig& config() const { return config_; }

 private:
  NoPartitioningJoinConfig config_;
};

}  // namespace triton::join

#endif  // TRITON_JOIN_NO_PARTITIONING_JOIN_H_
