#include "core/analysis_types.h"

#include <algorithm>
// The Fig. 7 and Figs. 8-10 reducers below run once over the final
// campaign list, not per probe. synscan-lint: allow(hot-path-container)
#include <unordered_map>
#include <unordered_set>  // synscan-lint: allow(hot-path-container)

namespace synscan::core {
namespace {

constexpr std::uint32_t port_type_key(std::uint16_t port, std::size_t type_index) noexcept {
  return (static_cast<std::uint32_t>(port) << 3) | static_cast<std::uint32_t>(type_index);
}

}  // namespace

TypeView::TypeView(const PortTally& ports, const enrich::InternetRegistry& registry) {
  for (const auto& [source, port_packets] : ports.per_source()) {
    const auto index = enrich::scanner_type_index(registry.type_of(net::Ipv4Address(source)));
    ++sources_[index];
    for (const auto [port, packets] : port_packets) {
      packets_[index] += packets;
      port_type_packets_[port_type_key(port, index)] += packets;
    }
  }
}

std::uint64_t TypeView::total_packets() const noexcept {
  std::uint64_t total = 0;
  for (const auto packets : packets_) total += packets;
  return total;
}

std::uint64_t TypeView::total_sources() const noexcept {
  std::uint64_t total = 0;
  for (const auto sources : sources_) total += sources;
  return total;
}

std::array<double, enrich::kScannerTypeCount> TypeView::port_type_mix(
    std::uint16_t port) const {
  std::array<std::uint64_t, enrich::kScannerTypeCount> packets{};
  std::uint64_t port_total = 0;
  for (std::size_t index = 0; index < enrich::kScannerTypeCount; ++index) {
    const auto* found = port_type_packets_.find(port_type_key(port, index));
    packets[index] = found == nullptr ? 0 : *found;
    port_total += packets[index];
  }
  std::array<double, enrich::kScannerTypeCount> mix{};
  if (port_total == 0) return mix;
  for (std::size_t index = 0; index < enrich::kScannerTypeCount; ++index) {
    mix[index] = static_cast<double>(packets[index]) / static_cast<double>(port_total);
  }
  return mix;
}

std::vector<TypeShareRow> type_share_table(const TypeView& types,
                                           std::span<const Campaign> campaigns,
                                           const enrich::InternetRegistry& registry) {
  std::array<std::uint64_t, enrich::kScannerTypeCount> scans{};
  for (const auto& campaign : campaigns) {
    ++scans[enrich::scanner_type_index(registry.type_of(campaign.source))];
  }

  const auto total_sources = types.total_sources();
  const auto total_packets = types.total_packets();
  const auto total_scans = campaigns.size();

  std::vector<TypeShareRow> rows;
  for (const auto type : enrich::kAllScannerTypes) {
    TypeShareRow row;
    row.type = type;
    const auto index = enrich::scanner_type_index(type);
    row.source_share = total_sources == 0
                           ? 0.0
                           : static_cast<double>(types.sources(type)) /
                                 static_cast<double>(total_sources);
    row.scan_share = total_scans == 0 ? 0.0
                                      : static_cast<double>(scans[index]) /
                                            static_cast<double>(total_scans);
    row.packet_share = total_packets == 0
                           ? 0.0
                           : static_cast<double>(types.packets(type)) /
                                 static_cast<double>(total_packets);
    rows.push_back(row);
  }
  return rows;
}

std::vector<TypeSpeedCoverage> type_speed_coverage(
    std::span<const Campaign> campaigns, const enrich::InternetRegistry& registry) {
  // Average speed and coverage per source IP first (the figure plots
  // per-source averages, not per-campaign points).
  struct SourceAgg {
    double speed_sum = 0.0;
    double coverage_sum = 0.0;
    std::uint64_t campaigns = 0;
    enrich::ScannerType type = enrich::ScannerType::kUnknown;
  };
  // synscan-lint: allow(hot-path-container)
  std::unordered_map<std::uint32_t, SourceAgg> per_source;
  for (const auto& campaign : campaigns) {
    auto& agg = per_source[campaign.source.value()];
    if (agg.campaigns == 0) agg.type = registry.type_of(campaign.source);
    agg.speed_sum += campaign.extrapolated_pps;
    agg.coverage_sum += campaign.coverage_fraction;
    ++agg.campaigns;
  }

  std::array<std::vector<double>, enrich::kScannerTypeCount> speeds;
  std::array<std::vector<double>, enrich::kScannerTypeCount> coverages;
  for (const auto& [source, agg] : per_source) {
    const auto index = enrich::scanner_type_index(agg.type);
    speeds[index].push_back(agg.speed_sum / static_cast<double>(agg.campaigns));
    coverages[index].push_back(agg.coverage_sum / static_cast<double>(agg.campaigns));
  }

  std::vector<TypeSpeedCoverage> rows;
  for (const auto type : enrich::kAllScannerTypes) {
    const auto index = enrich::scanner_type_index(type);
    TypeSpeedCoverage row;
    row.type = type;
    if (!speeds[index].empty()) {
      double speed_sum = 0.0;
      double coverage_sum = 0.0;
      std::size_t over_1000 = 0;
      for (const auto s : speeds[index]) {
        speed_sum += s;
        if (s > 1000.0) ++over_1000;
      }
      for (const auto c : coverages[index]) coverage_sum += c;
      const auto n = static_cast<double>(speeds[index].size());
      row.mean_speed_pps = speed_sum / n;
      row.mean_coverage = coverage_sum / n;
      row.fraction_over_1000pps = static_cast<double>(over_1000) / n;
    }
    row.speed_pps = stats::Ecdf(std::move(speeds[index]));
    row.coverage = stats::Ecdf(std::move(coverages[index]));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<OrgPortCoverage> org_port_coverage(std::span<const Campaign> campaigns,
                                               const enrich::InternetRegistry& registry) {
  struct OrgAgg {
    std::unordered_set<std::uint16_t> ports;  // synscan-lint: allow(hot-path-container)
    std::uint64_t campaigns = 0;
    std::uint64_t packets = 0;
  };
  // synscan-lint: allow(hot-path-container)
  std::unordered_map<std::string, OrgAgg> per_org;
  for (const auto& campaign : campaigns) {
    const auto* record = registry.lookup(campaign.source);
    if (record == nullptr || record->type != enrich::ScannerType::kInstitutional) continue;
    auto& agg = per_org[record->organization];
    for (const auto& [port, packets] : campaign.port_packets) agg.ports.insert(port);
    ++agg.campaigns;
    agg.packets += campaign.packets;
  }

  std::vector<OrgPortCoverage> rows;
  rows.reserve(per_org.size());
  for (auto& [org, agg] : per_org) {
    rows.push_back({org, static_cast<std::uint32_t>(agg.ports.size()), agg.campaigns,
                    agg.packets});
  }
  std::sort(rows.begin(), rows.end(), [](const OrgPortCoverage& a, const OrgPortCoverage& b) {
    return a.distinct_ports != b.distinct_ports ? a.distinct_ports > b.distinct_ports
                                                : a.organization < b.organization;
  });
  return rows;
}

}  // namespace synscan::core
