#include "util/units.h"

#include <cstdio>

namespace triton::util {

namespace {

std::string FormatWithSuffix(double value, const char* const* suffixes,
                             int num_suffixes, double divisor) {
  int idx = 0;
  while (idx + 1 < num_suffixes && value >= divisor) {
    value /= divisor;
    ++idx;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, suffixes[idx]);
  return buf;
}

}  // namespace

std::string FormatBytes(uint64_t bytes) {
  static const char* const kSuffixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  return FormatWithSuffix(static_cast<double>(bytes), kSuffixes, 5, 1024.0);
}

std::string FormatTupleRate(double tuples_per_sec) {
  static const char* const kSuffixes[] = {"Tuples/s", "K Tuples/s",
                                          "M Tuples/s", "G Tuples/s"};
  return FormatWithSuffix(tuples_per_sec, kSuffixes, 4, 1000.0);
}

std::string FormatSeconds(double seconds) {
  char buf[64];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  } else if (seconds >= 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.3f us", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f ns", seconds * 1e9);
  }
  return buf;
}

}  // namespace triton::util
