#include "util/stats.h"

namespace triton::util {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace triton::util
