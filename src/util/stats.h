// Small statistics helpers used by the benchmark harness (the paper reports
// mean and standard error over 10 runs).

#ifndef TRITON_UTIL_STATS_H_
#define TRITON_UTIL_STATS_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace triton::util {

/// Accumulates samples and exposes mean / stddev / standard error.
class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }

  size_t count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  /// Standard error of the mean.
  double stderr_mean() const {
    return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
  }

  /// Standard error relative to the mean (the paper keeps this below 5%).
  double relative_stderr() const {
    return mean_ != 0.0 ? stderr_mean() / std::fabs(mean_) : 0.0;
  }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector (0 for empty input).
double Mean(const std::vector<double>& xs);

}  // namespace triton::util

#endif  // TRITON_UTIL_STATS_H_
