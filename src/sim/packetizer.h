// NVLink 2.0 packet accounting (Sections 2.1 and 3.4.1 of the paper).
//
// The interconnect moves data in transactions of up to 128 bytes (SM path)
// or 256 bytes (DMA copy engines), aligned to 128-byte cachelines. Every
// transaction carries a 16-byte header; small reads are padded to a 32-byte
// payload and partial-cacheline writes carry a 16-byte "byte enable" header
// extension. The packetizer converts a memory access (address, size,
// direction) into transaction counts and physical wire volume, which is how
// the reproduction obtains Figure 6 (granularity/alignment bandwidth),
// Figure 18(b) (tuples per transaction) and Figure 18(c) (transfer volume
// overhead) from the algorithms' real access streams.

#ifndef TRITON_SIM_PACKETIZER_H_
#define TRITON_SIM_PACKETIZER_H_

#include <algorithm>
#include <cstdint>

#include "sim/hw_spec.h"

namespace triton::sim {

/// Result of packetizing one memory access or bulk transfer.
struct TxnStats {
  /// Number of link transactions.
  uint64_t txns = 0;
  /// Useful payload bytes (the access size).
  uint64_t payload = 0;
  /// Physical bytes on the wire: payload + padding + headers + extensions.
  uint64_t physical = 0;
};

/// Stateless packet-rule calculator for one interconnect spec.
class Packetizer {
 public:
  explicit Packetizer(const InterconnectSpec& spec) : spec_(spec) {}

  /// Packetizes a single access issued by SM threads (possibly coalesced
  /// from a warp): `addr` is the starting byte address, `size` the access
  /// size in bytes. The access is split at cacheline boundaries; each piece
  /// becomes one transaction. An access inside one cacheline — every
  /// per-tuple random access — is one transaction, computed inline.
  TxnStats Access(uint64_t addr, uint64_t size, bool is_write) const {
    const uint64_t line = spec_.alignment;
    if (size == 0 || (addr & (line - 1)) + size > line) {
      return AccessLines(addr, size, is_write);
    }
    TxnStats out;
    AddTxn(std::min<uint64_t>(size, spec_.max_sm_payload), is_write, &out);
    return out;
  }

  /// Packetizes a large sequential transfer (e.g. a kernel streaming a
  /// relation chunk) in O(1). Assumes cacheline-aligned bulk interior with
  /// at most two ragged edges.
  TxnStats Bulk(uint64_t addr, uint64_t size, bool is_write) const;

 private:
  /// Access for an access that may span cachelines: one transaction per
  /// (partial) cacheline touched.
  TxnStats AccessLines(uint64_t addr, uint64_t size, bool is_write) const;

  /// Accounts one transaction with `payload_bytes` of useful data.
  void AddTxn(uint64_t payload_bytes, bool is_write, TxnStats* out) const {
    out->txns += 1;
    out->payload += payload_bytes;
    // Small reads are padded to the minimum payload. Writes move data in
    // 32-byte sectors like reads; partial-cacheline writes additionally
    // need the byte-enable header extension so the receiver knows which
    // payload bytes are valid — which is why the paper measures small reads
    // 44-74% faster than small writes.
    out->physical += std::max<uint64_t>(payload_bytes, spec_.min_read_payload) +
                     spec_.header_bytes;
    if (is_write && payload_bytes < spec_.max_sm_payload) {
      out->physical += spec_.byte_enable_bytes;
    }
  }

  InterconnectSpec spec_;
};

}  // namespace triton::sim

#endif  // TRITON_SIM_PACKETIZER_H_
