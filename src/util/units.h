// Byte-size constants and human-readable formatting of sizes and rates.

#ifndef TRITON_UTIL_UNITS_H_
#define TRITON_UTIL_UNITS_H_

#include <cstdint>
#include <string>

namespace triton::util {

inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

/// 10^9 bytes; interconnect vendor figures (e.g. 75 GB/s) use decimal units.
inline constexpr uint64_t kGB = 1000ull * 1000 * 1000;

/// Formats a byte count as e.g. "1.50 GiB".
std::string FormatBytes(uint64_t bytes);

/// Formats a tuple rate as e.g. "2.25 G Tuples/s".
std::string FormatTupleRate(double tuples_per_sec);

/// Formats seconds as e.g. "12.3 ms".
std::string FormatSeconds(double seconds);

}  // namespace triton::util

#endif  // TRITON_UTIL_UNITS_H_
