// Descriptive statistics: streaming moments and order statistics.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace synscan::stats {

/// Numerically stable streaming mean/variance (Welford's algorithm) with
/// min/max tracking. Suitable for telescope-scale streams where holding
/// all samples is not an option.
class StreamingMoments {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile of a sample using linear interpolation between order
/// statistics (type-7, the numpy/R default). `q` in [0, 1].
/// The input is copied; use `quantile_inplace` to avoid the copy.
[[nodiscard]] double quantile(std::span<const double> sample, double q);

/// As `quantile`, but partially sorts `sample` in place.
[[nodiscard]] double quantile_inplace(std::vector<double>& sample, double q);

[[nodiscard]] inline double median(std::span<const double> sample) {
  return quantile(sample, 0.5);
}

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(std::span<const double> sample);

}  // namespace synscan::stats
