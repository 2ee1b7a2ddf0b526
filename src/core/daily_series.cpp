#include "core/daily_series.h"

#include <algorithm>

namespace synscan::core {

void DailyPortSeries::count(net::TimeUs timestamp_us, std::uint16_t port) {
  const auto day =
      timestamp_us <= origin_
          ? std::size_t{0}
          : static_cast<std::size_t>((timestamp_us - origin_) / net::kMicrosPerDay);
  max_day_ = std::max(max_day_, day);
  ++counts_[(static_cast<std::uint64_t>(port) << 32) | day];
  ++day_totals_[static_cast<std::uint32_t>(day)];
}

void DailyPortSeries::observe_batch(const telescope::ProbeBatch& batch,
                                    std::span<const std::uint32_t> rows) {
  for (const auto row : rows) count(batch.timestamp_us[row], batch.destination_port[row]);
}

std::vector<std::uint64_t> DailyPortSeries::series(std::uint16_t port) const {
  std::vector<std::uint64_t> out(days(), 0);
  for (std::size_t day = 0; day < out.size(); ++day) {
    const auto* count = counts_.find((static_cast<std::uint64_t>(port) << 32) | day);
    if (count != nullptr) out[day] = *count;
  }
  return out;
}

std::vector<std::uint64_t> DailyPortSeries::totals() const {
  std::vector<std::uint64_t> out(days(), 0);
  for (const auto& [day, count] : day_totals_) out[day] = count;
  return out;
}

DisclosureDecay disclosure_decay(const DailyPortSeries& series, std::uint16_t port,
                                 std::size_t disclosure_day, std::size_t baseline_days,
                                 double recovered_threshold, std::size_t ks_window) {
  DisclosureDecay decay;
  decay.port = port;
  decay.disclosure_day = disclosure_day;

  const auto daily = series.series(port);
  if (daily.empty() || disclosure_day >= daily.size()) return decay;

  // Baseline: mean daily activity over the window before the event.
  const std::size_t baseline_start =
      disclosure_day > baseline_days ? disclosure_day - baseline_days : 0;
  double baseline_sum = 0.0;
  std::size_t baseline_n = 0;
  std::vector<double> baseline_sample;
  for (std::size_t day = baseline_start; day < disclosure_day; ++day) {
    baseline_sum += static_cast<double>(daily[day]);
    baseline_sample.push_back(static_cast<double>(daily[day]));
    ++baseline_n;
  }
  // A port can be entirely quiet before its disclosure; a one-packet/day
  // floor keeps multipliers finite and comparable across events.
  const double baseline = std::max(1.0, baseline_n ? baseline_sum / static_cast<double>(baseline_n) : 1.0);

  decay.multiplier.reserve(daily.size() - disclosure_day);
  for (std::size_t day = disclosure_day; day < daily.size(); ++day) {
    const double m = static_cast<double>(daily[day]) / baseline;
    decay.multiplier.push_back(m);
    if (m > decay.peak_multiplier) {
      decay.peak_multiplier = m;
      decay.peak_day_after = day - disclosure_day;
    }
  }

  for (std::size_t i = decay.peak_day_after + 1; i < decay.multiplier.size(); ++i) {
    if (decay.multiplier[i] <= recovered_threshold) {
      decay.days_to_recover = i;
      break;
    }
  }

  // "Back to normal": compare the tail window against the baseline
  // sample. A high p-value means the distributions are indistinguishable.
  std::vector<double> tail_sample;
  const std::size_t tail_start =
      daily.size() > ks_window ? daily.size() - ks_window : 0;
  for (std::size_t day = std::max(tail_start, disclosure_day); day < daily.size(); ++day) {
    tail_sample.push_back(static_cast<double>(daily[day]));
  }
  if (!baseline_sample.empty() && !tail_sample.empty()) {
    decay.back_to_normal = stats::kolmogorov_smirnov(baseline_sample, tail_sample);
  }
  return decay;
}

}  // namespace synscan::core
