#include "data/relation.h"

#include <cstdint>
#include <string>

namespace triton::data {

util::StatusOr<Relation> Relation::AllocateCpu(mem::Allocator& alloc,
                                               uint64_t rows,
                                               uint32_t payload_cols) {
  if (rows == 0) {
    return util::Status::InvalidArgument("relation must have at least 1 row");
  }
  if (rows > UINT64_MAX / (kKeyBytes + payload_cols * kValueBytes)) {
    return util::Status::InvalidArgument(
        "relation of " + std::to_string(rows) +
        " rows: its byte size overflows 64 bits");
  }
  Relation rel;
  rel.rows_ = rows;
  auto keys = alloc.AllocateCpu(rows * kKeyBytes);
  if (!keys.ok()) return keys.status();
  rel.keys_ = std::move(keys).value();
  for (uint32_t c = 0; c < payload_cols; ++c) {
    auto col = alloc.AllocateCpu(rows * kValueBytes);
    if (!col.ok()) return col.status();
    rel.payloads_.push_back(std::move(col).value());
  }
  return rel;
}

}  // namespace triton::data
