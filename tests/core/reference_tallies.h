// Test-only per-probe reference for the scanner-type and country
// tallies: each probe attributed through the registry on its own and
// counted in std containers, the way the type and country observers
// worked before both became views of `core::PortTally`
// (core/analysis_types.h, core/analysis_geo.h).
//
// The `expect_*_view_matches` checks ask a derived view every question
// it answers and compare with this reference, so a view is pinned to an
// implementation whose correctness is easy to audit.
// `expect_same_port_tally` compares two `core::PortTally`s source by
// source and port by port: the pipeline folds its tally from flows, so
// it inserts sources in another order than a per-probe tally does.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/analysis_geo.h"
#include "core/analysis_types.h"
#include "core/observers.h"
#include "core/port_tally.h"
#include "enrich/registry.h"

namespace synscan::testing {

class ReferenceTypeTally final : public core::ProbeObserver {
 public:
  explicit ReferenceTypeTally(const enrich::InternetRegistry& registry)
      : registry_(&registry) {}

  void on_probe(const telescope::ScanProbe& probe) override {
    const auto index = enrich::scanner_type_index(registry_->type_of(probe.source));
    ++packets[index];
    sources[index].insert(probe.source.value());
    ++port_packets[probe.destination_port][index];
  }

  std::array<std::uint64_t, enrich::kScannerTypeCount> packets{};
  std::array<std::set<std::uint32_t>, enrich::kScannerTypeCount> sources;
  std::map<std::uint16_t, std::array<std::uint64_t, enrich::kScannerTypeCount>> port_packets;

 private:
  const enrich::InternetRegistry* registry_;
};

class ReferenceGeoTally final : public core::ProbeObserver {
 public:
  explicit ReferenceGeoTally(const enrich::InternetRegistry& registry)
      : registry_(&registry) {}

  void on_probe(const telescope::ScanProbe& probe) override {
    const auto country = registry_->country_of(probe.source);
    ++total;
    ++packets[country];
    ++port_packets[probe.destination_port][country];
  }

  std::uint64_t total = 0;
  std::map<enrich::CountryCode, std::uint64_t> packets;
  std::map<std::uint16_t, std::map<enrich::CountryCode, std::uint64_t>> port_packets;

 private:
  const enrich::InternetRegistry* registry_;
};

/// Expects `got` to hold exactly `want`'s sources, each with the same
/// (port, packets) rows, and the same packet total, whatever order
/// either tally inserted its sources and ports in.
inline void expect_same_port_tally(const core::PortTally& got, const core::PortTally& want) {
  EXPECT_EQ(got.total_packets(), want.total_packets());
  ASSERT_EQ(got.total_sources(), want.total_sources());
  std::vector<core::PortPacketMap::value_type> got_rows;
  std::vector<core::PortPacketMap::value_type> want_rows;
  for (const auto& [source, ports] : want.per_source()) {
    const auto* found = got.per_source().find(source);
    ASSERT_NE(found, nullptr) << "source " << source;
    found->sorted_rows(got_rows);
    ports.sorted_rows(want_rows);
    EXPECT_EQ(got_rows, want_rows) << "source " << source;
  }
}

/// A port no probe in `reference` targets, to ask the views about.
template <typename Reference>
std::uint16_t unseen_port(const Reference& reference) {
  std::uint16_t port = 1;
  while (reference.port_packets.contains(port)) ++port;
  return port;
}

inline void expect_type_view_matches(const core::TypeView& view,
                                     const ReferenceTypeTally& reference) {
  std::uint64_t total_packets = 0;
  std::uint64_t total_sources = 0;
  for (const auto type : enrich::kAllScannerTypes) {
    const auto index = enrich::scanner_type_index(type);
    EXPECT_EQ(view.packets(type), reference.packets[index]) << enrich::to_string(type);
    EXPECT_EQ(view.sources(type), reference.sources[index].size())
        << enrich::to_string(type);
    total_packets += reference.packets[index];
    total_sources += reference.sources[index].size();
  }
  EXPECT_EQ(view.total_packets(), total_packets);
  EXPECT_EQ(view.total_sources(), total_sources);

  for (const auto& [port, packets] : reference.port_packets) {
    std::uint64_t port_total = 0;
    for (const auto n : packets) port_total += n;
    std::array<double, enrich::kScannerTypeCount> mix{};
    for (std::size_t i = 0; i < mix.size(); ++i) {
      mix[i] = static_cast<double>(packets[i]) / static_cast<double>(port_total);
    }
    EXPECT_EQ(view.port_type_mix(port), mix) << "port " << port;
  }
  EXPECT_EQ(view.port_type_mix(unseen_port(reference)),
            (std::array<double, enrich::kScannerTypeCount>{}));
}

namespace detail {

/// Ranks (country, packets) rows by packets, ties by country code, with
/// shares of `total`.
inline std::vector<core::CountryShare> ranked(
    const std::map<enrich::CountryCode, std::uint64_t>& packets, std::uint64_t total) {
  std::vector<core::CountryShare> rows;
  for (const auto& [country, n] : packets) {
    rows.push_back({country, n, static_cast<double>(n) / static_cast<double>(total)});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const core::CountryShare& a, const core::CountryShare& b) {
                     return a.packets > b.packets;
                   });
  return rows;
}

inline void expect_same_shares(const std::vector<core::CountryShare>& got,
                               const std::vector<core::CountryShare>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].country, want[i].country) << "row " << i;
    EXPECT_EQ(got[i].packets, want[i].packets) << "row " << i;
    EXPECT_EQ(got[i].share, want[i].share) << "row " << i;
  }
}

}  // namespace detail

inline void expect_geo_view_matches(const core::GeoView& view,
                                    const ReferenceGeoTally& reference,
                                    const enrich::InternetRegistry& registry) {
  const auto everything = std::size_t{1} << 20;
  EXPECT_EQ(view.total_packets(), reference.total);
  detail::expect_same_shares(view.top_countries(everything),
                             detail::ranked(reference.packets, reference.total));
  for (const auto& [country, packets] : reference.packets) {
    EXPECT_EQ(view.country_share(country),
              static_cast<double>(packets) / static_cast<double>(reference.total))
        << country.to_string();
  }
  EXPECT_EQ(view.country_share(enrich::CountryCode("ZZ")), 0.0);

  for (const auto& [port, packets] : reference.port_packets) {
    std::uint64_t port_total = 0;
    for (const auto& [country, n] : packets) port_total += n;
    SCOPED_TRACE(port);
    detail::expect_same_shares(view.port_country_mix(port, everything),
                               detail::ranked(packets, port_total));
  }
  EXPECT_TRUE(view.port_country_mix(unseen_port(reference), everything).empty());

  for (const auto& [threshold, min_packets] :
       {std::pair{0.8, std::uint64_t{10}}, std::pair{0.5, std::uint64_t{1}}}) {
    std::map<enrich::CountryCode, std::uint32_t> want;
    for (const auto& [port, packets] : reference.port_packets) {
      std::uint64_t port_total = 0;
      for (const auto& [country, n] : packets) port_total += n;
      if (port_total < min_packets) continue;
      for (const auto& [country, n] : packets) {
        if (static_cast<double>(n) > threshold * static_cast<double>(port_total)) {
          ++want[country];
        }
      }
    }
    const auto dominated = view.dominated_ports(threshold, min_packets);
    const std::map<enrich::CountryCode, std::uint32_t> got(dominated.begin(),
                                                           dominated.end());
    EXPECT_EQ(got, want) << "threshold " << threshold;
  }

  std::map<enrich::CountryCode, std::uint64_t> addresses;
  for (const auto& record : registry.records()) addresses[record.country] += record.prefix.size();
  std::vector<core::NormalizedIntensity> intensity;
  for (const auto& [country, packets] : reference.packets) {
    const auto allocation = addresses[country];
    if (allocation == 0) continue;
    intensity.push_back({country, packets, allocation,
                         static_cast<double>(packets) * 1000.0 /
                             static_cast<double>(allocation)});
  }
  std::stable_sort(intensity.begin(), intensity.end(),
                   [](const core::NormalizedIntensity& a, const core::NormalizedIntensity& b) {
                     return a.packets_per_k_addresses > b.packets_per_k_addresses;
                   });
  const auto got = view.normalized_intensity(registry, everything);
  ASSERT_EQ(got.size(), intensity.size());
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    EXPECT_EQ(got[i].country, intensity[i].country) << "row " << i;
    EXPECT_EQ(got[i].packets, intensity[i].packets) << "row " << i;
    EXPECT_EQ(got[i].addresses, intensity[i].addresses) << "row " << i;
    EXPECT_EQ(got[i].packets_per_k_addresses, intensity[i].packets_per_k_addresses)
        << "row " << i;
  }
}

}  // namespace synscan::testing
