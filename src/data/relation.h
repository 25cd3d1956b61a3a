// Column-oriented relations (the paper stores R and S columnar,
// Section 6.1).
//
// A relation has one key column and zero or more 8-byte payload columns;
// the default workload uses 16-byte <key, record-id> tuples, i.e. one
// payload column. Columns are separate simulated-memory buffers so that
// kernels can stream exactly the columns they touch (the prefix sum reads
// only the key column; late materialization gathers payload columns with
// random accesses — Figure 22).

#ifndef TRITON_DATA_RELATION_H_
#define TRITON_DATA_RELATION_H_

#include <cstdint>
#include <vector>

#include "mem/allocator.h"
#include "mem/buffer.h"
#include "util/status.h"

namespace triton::data {

/// Join key type (8 bytes, as in the paper's 16-byte tuples).
using Key = int64_t;
/// Payload / record-id type (8 bytes).
using Value = int64_t;

inline constexpr uint64_t kKeyBytes = sizeof(Key);
inline constexpr uint64_t kValueBytes = sizeof(Value);
/// Default tuple width: key + one payload attribute.
inline constexpr uint64_t kTupleBytes = kKeyBytes + kValueBytes;

/// A column-oriented table in simulated memory.
class Relation {
 public:
  Relation() = default;

  /// Allocates an uninitialized relation with `rows` rows and
  /// `payload_cols` payload columns in CPU memory. Refuses zero rows and a
  /// row count whose byte size overflows 64 bits.
  static util::StatusOr<Relation> AllocateCpu(mem::Allocator& alloc,
                                              uint64_t rows,
                                              uint32_t payload_cols = 1);

  uint64_t rows() const { return rows_; }
  uint32_t payload_cols() const {
    return static_cast<uint32_t>(payloads_.size());
  }

  /// Bytes per tuple across all columns.
  uint64_t tuple_bytes() const {
    return kKeyBytes + payload_cols() * kValueBytes;
  }

  /// Total bytes across all columns.
  uint64_t total_bytes() const { return rows_ * tuple_bytes(); }

  Key* keys() { return keys_.as<Key>(); }
  const Key* keys() const { return keys_.as<Key>(); }

  Value* payload(uint32_t col = 0) { return payloads_[col].as<Value>(); }
  const Value* payload(uint32_t col = 0) const {
    return payloads_[col].as<Value>();
  }

  mem::Buffer& key_buffer() { return keys_; }
  const mem::Buffer& key_buffer() const { return keys_; }
  mem::Buffer& payload_buffer(uint32_t col = 0) { return payloads_[col]; }
  const mem::Buffer& payload_buffer(uint32_t col = 0) const {
    return payloads_[col];
  }

 private:
  uint64_t rows_ = 0;
  mem::Buffer keys_;
  std::vector<mem::Buffer> payloads_;
};

}  // namespace triton::data

#endif  // TRITON_DATA_RELATION_H_
