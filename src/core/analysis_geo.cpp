#include "core/analysis_geo.h"

#include <algorithm>

namespace synscan::core {
namespace {

constexpr std::uint32_t port_country_key(std::uint16_t port, std::uint32_t packed) noexcept {
  return (static_cast<std::uint32_t>(port) << 16) | packed;
}

enrich::CountryCode country_from(std::uint32_t packed) {
  return enrich::CountryCode::from_packed(static_cast<std::uint16_t>(packed));
}

std::vector<CountryShare> rank(std::vector<CountryShare> rows, std::uint64_t total,
                               std::size_t n) {
  std::sort(rows.begin(), rows.end(), [](const CountryShare& a, const CountryShare& b) {
    return a.packets != b.packets ? a.packets > b.packets : a.country < b.country;
  });
  if (rows.size() > n) rows.resize(n);
  for (auto& row : rows) {
    row.share =
        total == 0 ? 0.0 : static_cast<double>(row.packets) / static_cast<double>(total);
  }
  return rows;
}

}  // namespace

GeoView::GeoView(const PortTally& ports, const enrich::InternetRegistry& registry) {
  for (const auto& [source, port_packets] : ports.per_source()) {
    const auto packed = registry.country_of(net::Ipv4Address(source)).packed();
    std::uint64_t source_packets = 0;
    for (const auto [port, packets] : port_packets) {
      packets_per_port_country_[port_country_key(port, packed)] += packets;
      source_packets += packets;
    }
    packets_per_country_[packed] += source_packets;
    total_ += source_packets;
  }
}

std::vector<CountryShare> GeoView::top_countries(std::size_t n) const {
  std::vector<CountryShare> rows;
  rows.reserve(packets_per_country_.size());
  for (const auto& [packed, packets] : packets_per_country_) {
    rows.push_back({country_from(packed), packets, 0.0});
  }
  return rank(std::move(rows), total_, n);
}

double GeoView::country_share(enrich::CountryCode country) const {
  const auto* packets = packets_per_country_.find(country.packed());
  if (packets == nullptr || total_ == 0) return 0.0;
  return static_cast<double>(*packets) / static_cast<double>(total_);
}

// The result is a one-shot summary; see the header for why the std map
// type stays.
// synscan-lint: allow(hot-path-container)
std::unordered_map<enrich::CountryCode, std::uint32_t> GeoView::dominated_ports(
    double threshold, std::uint64_t min_packets) const {
  PortPacketMap port_totals;
  for (const auto& [key, packets] : packets_per_port_country_) {
    port_totals.add(static_cast<std::uint16_t>(key >> 16), packets);
  }
  // synscan-lint: allow(hot-path-container)
  std::unordered_map<enrich::CountryCode, std::uint32_t> dominated;
  for (const auto& [key, packets] : packets_per_port_country_) {
    const auto port_total = port_totals.get(static_cast<std::uint16_t>(key >> 16));
    if (port_total >= min_packets &&
        static_cast<double>(packets) > threshold * static_cast<double>(port_total)) {
      ++dominated[country_from(key & 0xffffu)];
    }
  }
  return dominated;
}

std::vector<CountryShare> GeoView::port_country_mix(std::uint16_t port, std::size_t n) const {
  std::vector<CountryShare> rows;
  std::uint64_t port_total = 0;
  for (const auto& [packed, unused] : packets_per_country_) {
    const auto* packets = packets_per_port_country_.find(port_country_key(port, packed));
    if (packets == nullptr) continue;
    rows.push_back({country_from(packed), *packets, 0.0});
    port_total += *packets;
  }
  return rank(std::move(rows), port_total, n);
}

std::vector<NormalizedIntensity> GeoView::normalized_intensity(
    const enrich::InternetRegistry& registry, std::size_t n) const {
  FlatHashMap<std::uint32_t, std::uint64_t> addresses;
  for (const auto& record : registry.records()) {
    addresses[record.country.packed()] += record.prefix.size();
  }
  std::vector<NormalizedIntensity> rows;
  for (const auto& [packed, packets] : packets_per_country_) {
    const auto* allocation = addresses.find(packed);
    if (allocation == nullptr || *allocation == 0) continue;
    NormalizedIntensity row;
    row.country = country_from(packed);
    row.packets = packets;
    row.addresses = *allocation;
    row.packets_per_k_addresses =
        static_cast<double>(packets) * 1000.0 / static_cast<double>(*allocation);
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const NormalizedIntensity& a, const NormalizedIntensity& b) {
              return a.packets_per_k_addresses != b.packets_per_k_addresses
                         ? a.packets_per_k_addresses > b.packets_per_k_addresses
                         : a.country < b.country;
            });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::vector<CountryShare> campaign_country_shares(std::span<const Campaign> campaigns,
                                                  const enrich::InternetRegistry& registry,
                                                  std::size_t n) {
  FlatHashMap<std::uint32_t, std::uint64_t> counts;
  for (const auto& campaign : campaigns) {
    ++counts[registry.country_of(campaign.source).packed()];
  }
  std::vector<CountryShare> rows;
  rows.reserve(counts.size());
  for (const auto& [packed, scans] : counts) rows.push_back({country_from(packed), scans, 0.0});
  return rank(std::move(rows), campaigns.size(), n);
}

}  // namespace synscan::core
