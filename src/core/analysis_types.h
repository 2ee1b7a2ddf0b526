// Scanner-type analyses (§6.6–§6.8): Table 2, the per-port type mix
// (Fig. 5), speed/coverage by type (Fig. 7) and the known-scanner port
// census (Figs. 8–10).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/flat_map.h"
#include "core/observers.h"
#include "core/port_tally.h"
#include "enrich/registry.h"
#include "stats/ecdf.h"

namespace synscan::core {

/// Per-scanner-type packets, distinct sources and per-(port, type)
/// packets (the Fig. 5 mix), derived from a `PortTally` with one
/// registry lookup per source. The registry must be the one the
/// analysis ran with.
class TypeView {
 public:
  TypeView(const PortTally& ports, const enrich::InternetRegistry& registry);

  [[nodiscard]] std::uint64_t packets(enrich::ScannerType type) const noexcept {
    return packets_[enrich::scanner_type_index(type)];
  }
  [[nodiscard]] std::uint64_t sources(enrich::ScannerType type) const noexcept {
    return sources_[enrich::scanner_type_index(type)];
  }
  [[nodiscard]] std::uint64_t total_packets() const noexcept;
  [[nodiscard]] std::uint64_t total_sources() const noexcept;

  /// Per-type packet mix on one port (shares of that port's packets).
  [[nodiscard]] std::array<double, enrich::kScannerTypeCount> port_type_mix(
      std::uint16_t port) const;

 private:
  std::array<std::uint64_t, enrich::kScannerTypeCount> packets_{};
  std::array<std::uint64_t, enrich::kScannerTypeCount> sources_{};
  // (port << 3) | type — type fits in 3 bits.
  FlatHashMap<std::uint32_t, std::uint64_t> port_type_packets_;
};

/// No-op observer. The traced benchmark tour (perfbench/harness/tour.cpp)
/// still attaches one and times it as `observers.types`; delete it when
/// ROADMAP item 9 moves the tour onto the tally the pipeline folds.
class TypeTally final : public ProbeObserver {
 public:
  explicit TypeTally(const enrich::InternetRegistry& /*registry*/) {}
  void on_probe(const telescope::ScanProbe& /*probe*/) override {}
  void observe_batch(const telescope::ProbeBatch& /*batch*/,
                     std::span<const std::uint32_t> /*rows*/) override {}
};

/// Table 2: share of sources / scans / packets per scanner type.
struct TypeShareRow {
  enrich::ScannerType type = enrich::ScannerType::kUnknown;
  double source_share = 0.0;
  double scan_share = 0.0;
  double packet_share = 0.0;
};

[[nodiscard]] std::vector<TypeShareRow> type_share_table(
    const TypeView& types, std::span<const Campaign> campaigns,
    const enrich::InternetRegistry& registry);

/// Fig. 7: per-type speed (pps) and coverage (fraction) samples averaged
/// per source IP.
struct TypeSpeedCoverage {
  enrich::ScannerType type = enrich::ScannerType::kUnknown;
  stats::Ecdf speed_pps;
  stats::Ecdf coverage;
  double mean_speed_pps = 0.0;
  double mean_coverage = 0.0;
  /// Fraction of sources whose mean speed exceeds 1,000 pps (the §6.8
  /// "12% of residential vs 84% of institutional" comparison).
  double fraction_over_1000pps = 0.0;
};

[[nodiscard]] std::vector<TypeSpeedCoverage> type_speed_coverage(
    std::span<const Campaign> campaigns, const enrich::InternetRegistry& registry);

/// Figs. 8–10: distinct ports scanned per known (institutional)
/// organization.
struct OrgPortCoverage {
  std::string organization;
  std::uint32_t distinct_ports = 0;
  std::uint64_t campaigns = 0;
  std::uint64_t packets = 0;
};

[[nodiscard]] std::vector<OrgPortCoverage> org_port_coverage(
    std::span<const Campaign> campaigns, const enrich::InternetRegistry& registry);

}  // namespace synscan::core
