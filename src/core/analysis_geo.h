// Geographic attribution (§4.2, §5.4): country shares of scanning and
// country-port targeting bias.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>  // synscan-lint: allow(hot-path-container) — dominated_ports result type only
#include <vector>

#include "core/campaign.h"
#include "core/flat_map.h"
#include "core/observers.h"
#include "core/port_tally.h"
#include "enrich/registry.h"

namespace synscan::core {

/// A country's share of some total (packets or campaigns).
struct CountryShare {
  enrich::CountryCode country;
  std::uint64_t packets = 0;
  double share = 0.0;
};

/// §4.2: packets normalized by a country's allocated address space
/// (packets per thousand addresses). Under this lens the historically
/// "aggressive" countries stop standing out and the Netherlands — with
/// its small allocation but big hosting business — tops the list.
struct NormalizedIntensity {
  enrich::CountryCode country;
  std::uint64_t packets = 0;
  std::uint64_t addresses = 0;
  double packets_per_k_addresses = 0.0;
};

/// Per-country and per-(port, country) packets, derived from a
/// `PortTally` with one registry lookup per source. The registry must be
/// the one the analysis ran with.
class GeoView {
 public:
  GeoView(const PortTally& ports, const enrich::InternetRegistry& registry);

  /// Countries ranked by packet volume (ties by country code).
  [[nodiscard]] std::vector<CountryShare> top_countries(std::size_t n) const;

  /// Packet share of one country.
  [[nodiscard]] double country_share(enrich::CountryCode country) const;

  /// Ports where one country originates more than `threshold` of the
  /// packets (the §5.4 "China > 80% on 14,444 ports" census). Returns,
  /// per country, the number of such dominated ports; only ports with at
  /// least `min_packets` are considered. Below a threshold of 0.5 a port
  /// can count for several countries. The result is a one-shot summary
  /// handed to report code, so the std map type stays.
  // synscan-lint: allow(hot-path-container)
  [[nodiscard]] std::unordered_map<enrich::CountryCode, std::uint32_t> dominated_ports(
      double threshold = 0.8, std::uint64_t min_packets = 10) const;

  /// The country mix on one port, ranked by packets (ties by country
  /// code).
  [[nodiscard]] std::vector<CountryShare> port_country_mix(std::uint16_t port,
                                                           std::size_t n) const;

  /// Countries ranked by packets per thousand allocated addresses (ties
  /// by country code).
  [[nodiscard]] std::vector<NormalizedIntensity> normalized_intensity(
      const enrich::InternetRegistry& registry, std::size_t n) const;

  [[nodiscard]] std::uint64_t total_packets() const noexcept { return total_; }

 private:
  // Keyed by CountryCode::packed(), in first-seen order.
  FlatHashMap<std::uint32_t, std::uint64_t> packets_per_country_;
  // (port << 16) | packed country: port and packed code occupy disjoint
  // halves of the 32-bit key.
  FlatHashMap<std::uint32_t, std::uint64_t> packets_per_port_country_;
  std::uint64_t total_ = 0;
};

/// No-op observer. The traced benchmark tour (perfbench/harness/tour.cpp)
/// still attaches one and times it as `observers.geo`; delete it when
/// ROADMAP item 9 moves the tour onto the tally the pipeline folds.
class GeoTally final : public ProbeObserver {
 public:
  explicit GeoTally(const enrich::InternetRegistry& /*registry*/) {}
  void on_probe(const telescope::ScanProbe& /*probe*/) override {}
  void observe_batch(const telescope::ProbeBatch& /*batch*/,
                     std::span<const std::uint32_t> /*rows*/) override {}
};

/// Country shares weighted by campaigns instead of packets.
[[nodiscard]] std::vector<CountryShare> campaign_country_shares(
    std::span<const Campaign> campaigns, const enrich::InternetRegistry& registry,
    std::size_t n);

}  // namespace synscan::core
