// One 16-byte <key, value> hash-table entry.
//
// The no-partitioning join's perfect and linear-probing tables are arrays
// of entries, a zero key marking an empty slot (generated keys start at
// 1); the partitioning pipeline moves the same 16-byte shape as its
// row-format tuple.

#ifndef TRITON_HASH_ENTRY_H_
#define TRITON_HASH_ENTRY_H_

#include <cstdint>

namespace triton::hash {

/// One 16-byte hash table entry.
struct Entry {
  int64_t key = 0;
  int64_t value = 0;
};

}  // namespace triton::hash

#endif  // TRITON_HASH_ENTRY_H_
