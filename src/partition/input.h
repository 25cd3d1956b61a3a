// Input views for partitioning kernels.
//
// Pass 1 reads base relations in column layout (ColumnInput: separate key
// and payload arrays). Later passes, which only the Shared partitioner
// runs, read the 16-byte row-format tuples the previous pass produced
// (RowInput). Both views expose the same bulk GetBatch/KeysBatch interface
// and fetch tuples a tile of kBatchTuples at a time. Views are immutable:
// every thread block of a kernel reads through the same one.

#ifndef TRITON_PARTITION_INPUT_H_
#define TRITON_PARTITION_INPUT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "hash/entry.h"
#include "mem/buffer.h"

namespace triton::partition {

/// 16-byte <key, value> tuple flowing through the partitioning pipeline.
using Tuple = hash::Entry;

/// Tuples fetched per batch by the partitioning loops: large enough to
/// amortize per-batch overhead and let the partition-index loop vectorize,
/// small enough that batch + index arrays stay in L1 (256 tuples = 4 KiB
/// of tuples + 1 KiB of indices) like a warp-per-thread register tile
/// would on the real GPU.
inline constexpr uint32_t kBatchTuples = 256;

/// Columnar view over a base relation range (pass-1 input).
class ColumnInput {
 public:
  ColumnInput(const mem::Buffer* keys, const mem::Buffer* values,
              uint64_t offset_tuples, uint64_t num_tuples)
      : keys_(keys),
        values_(values),
        offset_(offset_tuples),
        num_tuples_(num_tuples) {}

  /// Convenience view over a whole relation's key + first payload column.
  static ColumnInput Of(const data::Relation& rel) {
    return ColumnInput(&rel.key_buffer(),
                       rel.payload_cols() > 0 ? &rel.payload_buffer(0)
                                              : nullptr,
                       0, rel.rows());
  }

  uint64_t size() const { return num_tuples_; }

  /// Fetches tuples [i, i + n) into `out`. Without a payload column the
  /// value is the tuple's row id.
  void GetBatch(uint64_t i, uint64_t n, Tuple* out) const {
    const data::Key* k = keys_->as<data::Key>() + offset_ + i;
    if (values_ != nullptr) {
      const data::Value* v = values_->as<data::Value>() + offset_ + i;
      for (uint64_t j = 0; j < n; ++j) {
        out[j].key = k[j];
        out[j].value = v[j];
      }
    } else {
      for (uint64_t j = 0; j < n; ++j) {
        out[j].key = k[j];
        out[j].value = static_cast<data::Value>(offset_ + i + j);  // row id
      }
    }
  }

  /// Bulk key fetch: keys of tuples [i, i + n) into `out` (histograms
  /// touch only the key column).
  void KeysBatch(uint64_t i, uint64_t n, data::Key* out) const {
    std::memcpy(out, keys_->as<data::Key>() + offset_ + i,
                n * sizeof(data::Key));
  }

  /// Accounts a sequential read of tuples [begin, end) of this view.
  void AccountRead(exec::KernelContext& ctx, uint64_t begin,
                   uint64_t end) const {
    ctx.ReadSeq(*keys_, (offset_ + begin) * sizeof(data::Key),
                (end - begin) * sizeof(data::Key));
    if (values_ != nullptr) {
      ctx.ReadSeq(*values_, (offset_ + begin) * sizeof(data::Value),
                  (end - begin) * sizeof(data::Value));
    }
  }

  /// Accounts a sequential read of only the key column (prefix sums read a
  /// single column per relation thanks to the columnar layout).
  void AccountReadKeys(exec::KernelContext& ctx, uint64_t begin,
                       uint64_t end) const {
    ctx.ReadSeq(*keys_, (offset_ + begin) * sizeof(data::Key),
                (end - begin) * sizeof(data::Key));
  }

  /// Bytes read per tuple.
  uint64_t BytesPerTuple() const {
    return sizeof(data::Key) + (values_ != nullptr ? sizeof(data::Value) : 0);
  }

 private:
  const mem::Buffer* keys_;
  const mem::Buffer* values_;  // may be null: generate row ids on the fly
  uint64_t offset_;
  uint64_t num_tuples_;
};

/// Row-format view over partitioned tuples (the input of every pass after
/// the first): a list of slices of one buffer, read as one flat index
/// space. A pass-1 partition is one slice per pass-1 block, with alignment
/// gaps between them; a pair staged contiguously in GPU memory is a single
/// slice.
class RowInput {
 public:
  /// `slices` are (tuple offset, tuple count) pairs in storage order.
  RowInput(const mem::Buffer* rows,
           std::vector<std::pair<uint64_t, uint64_t>> slices)
      : rows_(rows), slices_(std::move(slices)) {
    starts_.reserve(slices_.size() + 1);
    starts_.push_back(0);
    for (const auto& slice : slices_) {
      starts_.push_back(starts_.back() + slice.second);
    }
  }

  /// One slice: tuples [offset_tuples, offset_tuples + num_tuples).
  RowInput(const mem::Buffer* rows, uint64_t offset_tuples,
           uint64_t num_tuples)
      : RowInput(rows, {{offset_tuples, num_tuples}}) {}

  uint64_t size() const { return starts_.back(); }

  /// Fetches flat tuples [i, i + n) across slice boundaries: each
  /// contiguous sub-run within one slice is a memcpy.
  void GetBatch(uint64_t i, uint64_t n, Tuple* out) const {
    ForEachRun(i, n, [&](const Tuple* src, uint64_t at, uint64_t count) {
      std::memcpy(out + at, src, count * sizeof(Tuple));
    });
  }

  void KeysBatch(uint64_t i, uint64_t n, data::Key* out) const {
    ForEachRun(i, n, [&](const Tuple* src, uint64_t at, uint64_t count) {
      for (uint64_t j = 0; j < count; ++j) out[at + j] = src[j].key;
    });
  }

  /// Accounts one sequential read per slice that [begin, end) touches.
  void AccountRead(exec::KernelContext& ctx, uint64_t begin,
                   uint64_t end) const {
    for (size_t k = SliceOf(begin); k < slices_.size() && starts_[k] < end;
         ++k) {
      const uint64_t lo = std::max(begin, starts_[k]);
      const uint64_t hi = std::min(end, starts_[k + 1]);
      ctx.ReadSeq(*rows_,
                  (slices_[k].first + (lo - starts_[k])) * sizeof(Tuple),
                  (hi - lo) * sizeof(Tuple));
    }
  }

  /// Row-format tuples interleave keys with values, so a key scan still
  /// touches every cacheline: same cost as a full read.
  void AccountReadKeys(exec::KernelContext& ctx, uint64_t begin,
                       uint64_t end) const {
    AccountRead(ctx, begin, end);
  }

  /// Calls fn(src, at, count) for each run of flat tuples [i, i + n) that
  /// is contiguous in storage: `count` tuples at `src` are batch entries
  /// [at, at + count).
  template <typename Fn>
  void ForEachRun(uint64_t i, uint64_t n, Fn&& fn) const {
    const Tuple* rows = rows_->as<Tuple>();
    uint64_t done = 0;
    for (size_t k = SliceOf(i); done < n; ++k) {
      const uint64_t in_slice = i + done - starts_[k];
      const uint64_t take = std::min(n - done, slices_[k].second - in_slice);
      fn(rows + slices_[k].first + in_slice, done, take);
      done += take;
    }
  }

 private:
  /// Index of the slice holding flat tuple `i`: the last slice starting at
  /// or before it, so empty slices are skipped.
  size_t SliceOf(uint64_t i) const {
    return static_cast<size_t>(
               std::upper_bound(starts_.begin(), starts_.end(), i) -
               starts_.begin()) -
           1;
  }

  const mem::Buffer* rows_;
  std::vector<std::pair<uint64_t, uint64_t>> slices_;
  std::vector<uint64_t> starts_;  // flat index of each slice's first tuple
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_INPUT_H_
