#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace synscan::stats {

void StreamingMoments::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double StreamingMoments::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingMoments::stddev() const noexcept { return std::sqrt(variance()); }

double quantile_inplace(std::vector<double>& sample, double q) {
  if (sample.empty()) throw std::invalid_argument("quantile of empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile q outside [0,1]");
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sample.size() - 1);
  std::nth_element(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(lo),
                   sample.end());
  const double lo_value = sample[lo];
  if (hi == lo) return lo_value;
  const double hi_value =
      *std::min_element(sample.begin() + static_cast<std::ptrdiff_t>(lo) + 1, sample.end());
  const double frac = pos - static_cast<double>(lo);
  return lo_value + (hi_value - lo_value) * frac;
}

double quantile(std::span<const double> sample, double q) {
  std::vector<double> copy(sample.begin(), sample.end());
  return quantile_inplace(copy, q);
}

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : sample) sum += x;
  return sum / static_cast<double>(sample.size());
}

}  // namespace synscan::stats
