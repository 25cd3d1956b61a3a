#include "sim/packetizer.h"

#include <algorithm>

#include "util/bits.h"

namespace triton::sim {

TxnStats Packetizer::AccessLines(uint64_t addr, uint64_t size,
                                 bool is_write) const {
  TxnStats out;
  if (size == 0) return out;
  const uint64_t line = spec_.alignment;
  uint64_t pos = addr;
  uint64_t remaining = size;
  while (remaining > 0) {
    uint64_t line_end = util::AlignDown(pos, line) + line;
    uint64_t chunk = std::min(remaining, line_end - pos);
    // One transaction per (partial) cacheline touched; payload capped at the
    // SM transaction size.
    uint64_t payload = std::min<uint64_t>(chunk, spec_.max_sm_payload);
    AddTxn(payload, is_write, &out);
    pos += chunk;
    remaining -= chunk;
  }
  return out;
}

TxnStats Packetizer::Bulk(uint64_t addr, uint64_t size, bool is_write) const {
  TxnStats out;
  if (size == 0) return out;
  const uint64_t line = spec_.alignment;
  const uint64_t end = addr + size;

  // Ragged head: partial cacheline before the first boundary.
  if (addr % line != 0) {
    uint64_t head_end = std::min(end, util::AlignUp(addr, line));
    AddTxn(head_end - addr, is_write, &out);
    addr = head_end;
    if (addr >= end) return out;
  }

  // Ragged tail: partial cacheline after the last boundary.
  uint64_t tail_start = util::AlignDown(end, line);
  uint64_t tail = end - tail_start;

  // Full cachelines in the interior, accounted in O(1).
  uint64_t full_bytes = tail_start - addr;
  uint64_t full_lines = full_bytes / line;
  if (full_lines > 0) {
    out.txns += full_lines;
    out.payload += full_bytes;
    out.physical += full_bytes + full_lines * spec_.header_bytes;
  }
  if (tail > 0) {
    AddTxn(tail, is_write, &out);
  }
  return out;
}

}  // namespace triton::sim
