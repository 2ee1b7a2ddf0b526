#include "core/volatility.h"

#include <algorithm>

#include "stats/timeseries.h"

namespace synscan::core {
namespace {

constexpr std::uint64_t key_of(std::uint32_t block, std::uint32_t week) noexcept {
  return (static_cast<std::uint64_t>(block) << 32) | week;
}

}  // namespace

VolatilityTracker::VolatilityTracker(net::TimeUs origin, net::TimeUs week)
    : origin_(origin), week_(week) {}

std::uint32_t VolatilityTracker::week_of(net::TimeUs t) const noexcept {
  if (t <= origin_) return 0;
  return static_cast<std::uint32_t>((t - origin_) / week_);
}

void VolatilityTracker::count(std::uint32_t source, net::TimeUs timestamp_us) {
  const auto block = static_cast<std::uint32_t>(net::Ipv4Address(source).slash16());
  const auto week = week_of(timestamp_us);
  max_week_ = std::max(max_week_, week);
  const auto key = key_of(block, week);
  ++packets_[key];
  sources_[key].insert(source);
  active_blocks_.insert(block);
}

void VolatilityTracker::observe_batch(const telescope::ProbeBatch& batch,
                                      std::span<const std::uint32_t> rows) {
  for (const auto row : rows) count(batch.source[row], batch.timestamp_us[row]);
}

void VolatilityTracker::on_campaign(const Campaign& campaign) {
  const auto block = static_cast<std::uint32_t>(campaign.source.slash16());
  const auto week = week_of(campaign.first_seen_us);
  max_week_ = std::max(max_week_, week);
  ++campaigns_[key_of(block, week)];
  active_blocks_.insert(block);
}

VolatilityTracker::Result VolatilityTracker::result() const {
  const std::size_t weeks = static_cast<std::size_t>(max_week_) + 1;
  std::vector<double> packet_factors;
  std::vector<double> source_factors;
  std::vector<double> campaign_factors;

  std::vector<std::uint64_t> series(weeks);
  const auto reduce = [&](auto&& value_at, std::vector<double>& out) {
    for (std::size_t w = 0; w < weeks; ++w) {
      series[w] = value_at(w);
    }
    const auto factors = stats::change_factors(series);
    out.insert(out.end(), factors.begin(), factors.end());
  };

  active_blocks_.for_each([&](std::uint32_t block) {
    reduce(
        [&](std::size_t w) {
          const auto* packets = packets_.find(key_of(block, static_cast<std::uint32_t>(w)));
          return packets == nullptr ? std::uint64_t{0} : *packets;
        },
        packet_factors);
    reduce(
        [&](std::size_t w) {
          const auto* sources = sources_.find(key_of(block, static_cast<std::uint32_t>(w)));
          return sources == nullptr ? std::uint64_t{0}
                                    : static_cast<std::uint64_t>(sources->size());
        },
        source_factors);
    reduce(
        [&](std::size_t w) {
          const auto* count = campaigns_.find(key_of(block, static_cast<std::uint32_t>(w)));
          return count == nullptr ? std::uint64_t{0} : *count;
        },
        campaign_factors);
  });

  Result result;
  result.packet_change = stats::Ecdf(std::move(packet_factors));
  result.source_change = stats::Ecdf(std::move(source_factors));
  result.campaign_change = stats::Ecdf(std::move(campaign_factors));
  result.netblocks = active_blocks_.size();
  result.weeks = weeks;
  return result;
}

}  // namespace synscan::core
