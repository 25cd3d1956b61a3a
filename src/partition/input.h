// Input views for partitioning kernels.
//
// Pass 1 reads base relations in column layout (separate key and payload
// arrays); later passes read the 16-byte row-format tuples produced by the
// previous pass. Every view exposes the same bulk GetBatch/KeysBatch
// interface, so the partitioning kernels are written once, templated over
// the view, and fetch tuples a tile of kBatchTuples at a time.

#ifndef TRITON_PARTITION_INPUT_H_
#define TRITON_PARTITION_INPUT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "exec/device.h"
#include "hash/perfect_table.h"
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

/// Row-format view over partitioned tuples (pass-2+ input).
class RowInput {
 public:
  RowInput(const mem::Buffer* rows, uint64_t offset_tuples,
           uint64_t num_tuples)
      : rows_(rows), offset_(offset_tuples), num_tuples_(num_tuples) {}

  uint64_t size() const { return num_tuples_; }

  void GetBatch(uint64_t i, uint64_t n, Tuple* out) const {
    std::memcpy(out, rows_->as<Tuple>() + offset_ + i, n * sizeof(Tuple));
  }

  void KeysBatch(uint64_t i, uint64_t n, data::Key* out) const {
    const Tuple* rows = rows_->as<Tuple>() + offset_ + i;
    for (uint64_t j = 0; j < n; ++j) out[j] = rows[j].key;
  }

  void AccountRead(exec::KernelContext& ctx, uint64_t begin,
                   uint64_t end) const {
    ctx.ReadSeq(*rows_, (offset_ + begin) * sizeof(Tuple),
                (end - begin) * sizeof(Tuple));
  }

  /// Row-format tuples interleave keys with values, so a key scan still
  /// touches every cacheline: same cost as a full read.
  void AccountReadKeys(exec::KernelContext& ctx, uint64_t begin,
                       uint64_t end) const {
    AccountRead(ctx, begin, end);
  }

  uint64_t BytesPerTuple() const { return sizeof(Tuple); }

 private:
  const mem::Buffer* rows_;
  uint64_t offset_;
  uint64_t num_tuples_;
};

/// Row-format view over a list of slices (a pass-1 partition is stored as
/// per-block slices with alignment gaps; pass 2 reads it through this view
/// as one flat index space).
class SlicedRowInput {
 public:
  /// `slices` are (tuple offset, tuple count) pairs in storage order.
  SlicedRowInput(const mem::Buffer* rows,
                 std::vector<std::pair<uint64_t, uint64_t>> slices)
      : rows_(rows), slices_(std::move(slices)) {
    starts_.reserve(slices_.size() + 1);
    starts_.push_back(0);
    for (const auto& [begin, count] : slices_) {
      (void)begin;
      starts_.push_back(starts_.back() + count);
    }
  }

  uint64_t size() const { return starts_.back(); }

  /// Fetches flat tuples [i, i + n) across slice boundaries: each
  /// contiguous sub-run within one slice is a memcpy.
  void GetBatch(uint64_t i, uint64_t n, Tuple* out) const {
    const Tuple* rows = rows_->as<Tuple>();
    uint64_t done = 0;
    while (done < n) {
      const uint64_t pos = i + done;
      Seek(pos);
      const uint64_t in_slice = pos - starts_[cursor_];
      const uint64_t take =
          std::min(n - done, slices_[cursor_].second - in_slice);
      std::memcpy(out + done, rows + slices_[cursor_].first + in_slice,
                  take * sizeof(Tuple));
      done += take;
    }
  }

  void KeysBatch(uint64_t i, uint64_t n, data::Key* out) const {
    const Tuple* rows = rows_->as<Tuple>();
    uint64_t done = 0;
    while (done < n) {
      const uint64_t pos = i + done;
      Seek(pos);
      const uint64_t in_slice = pos - starts_[cursor_];
      const uint64_t take =
          std::min(n - done, slices_[cursor_].second - in_slice);
      const Tuple* src = rows + slices_[cursor_].first + in_slice;
      for (uint64_t j = 0; j < take; ++j) out[done + j] = src[j].key;
      done += take;
    }
  }

  void AccountRead(exec::KernelContext& ctx, uint64_t begin,
                   uint64_t end) const {
    for (size_t k = 0; k < slices_.size(); ++k) {
      uint64_t lo = std::max(begin, starts_[k]);
      uint64_t hi = std::min(end, starts_[k + 1]);
      if (lo >= hi) continue;
      ctx.ReadSeq(*rows_,
                  (slices_[k].first + (lo - starts_[k])) * sizeof(Tuple),
                  (hi - lo) * sizeof(Tuple));
    }
  }

  void AccountReadKeys(exec::KernelContext& ctx, uint64_t begin,
                       uint64_t end) const {
    AccountRead(ctx, begin, end);
  }

  uint64_t BytesPerTuple() const { return sizeof(Tuple); }

 private:
  /// Points cursor_ at the slice containing flat index `i`. Batches are
  /// overwhelmingly sequential, so the current slice is cached.
  void Seek(uint64_t i) const {
    if (i < starts_[cursor_] || i >= starts_[cursor_ + 1]) {
      auto it = std::upper_bound(starts_.begin(), starts_.end(), i);
      cursor_ = static_cast<size_t>(it - starts_.begin()) - 1;
    }
  }

  const mem::Buffer* rows_;
  std::vector<std::pair<uint64_t, uint64_t>> slices_;
  std::vector<uint64_t> starts_;
  mutable size_t cursor_ = 0;
};

}  // namespace triton::partition

#endif  // TRITON_PARTITION_INPUT_H_
