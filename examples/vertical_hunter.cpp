// Hunting vertical scans and the institutions behind them (2024).
//
// Finds the campaigns that sweep large parts of the port range, labels
// their sources with the known-scanner ETL, and separates research
// scanning from the rest — the §6.8 "looking into the mirror" filter
// every telescope study needs.
//
// Run:  ./vertical_hunter [--scale=4]
#include <iostream>
#include <string_view>

#include "core/analysis_campaigns.h"
#include "core/analysis_types.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "enrich/etl.h"
#include "report/table.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"

using namespace synscan;

int main(int argc, char** argv) {
  double scale = 4.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) scale = std::stod(std::string(arg.substr(8)));
  }

  const auto& telescope = telescope::Telescope::paper_default();
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  core::Pipeline pipeline(telescope);
  simgen::TrafficGenerator generator(simgen::year_config(2024, scale), telescope,
                                     registry);
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    pipeline.feed_probes(batch);
  });
  (void)generator.run([&](const net::RawFrame& f) { batcher.push(f); });
  pipeline.absorb_sensor_counters(batcher.finish());
  const auto result = pipeline.finish();

  const auto census = core::vertical_scan_census(result.campaigns);
  std::cout << "2024 window: " << census.total_campaigns << " campaigns\n"
            << "  >10 ports: " << census.over_10_ports
            << "   >100: " << census.over_100_ports
            << "   >1000: " << census.over_1000_ports
            << "   >10000: " << census.over_10000_ports
            << "   widest: " << census.max_ports << " ports\n\n";

  // The widest scans, labeled through the ETL.
  auto campaigns = result.campaigns;
  std::sort(campaigns.begin(), campaigns.end(),
            [](const core::Campaign& a, const core::Campaign& b) {
              return a.distinct_ports() > b.distinct_ports();
            });

  const enrich::KnownScannerEtl etl;
  report::Table table({"source", "ports", "pps", "attribution", "via"});
  for (std::size_t i = 0; i < std::min<std::size_t>(12, campaigns.size()); ++i) {
    const auto& campaign = campaigns[i];
    enrich::SourceIntelRecord intel;
    intel.ip = campaign.source;
    const auto match = etl.match(intel);
    const auto* record = registry.lookup(campaign.source);
    std::string attribution{match.phase != enrich::EtlPhase::kUnmatched
                                ? std::string(match.organization)
                                : (record ? record->organization : "unattributed")};
    table.add_row({campaign.source.to_string(),
                   std::to_string(campaign.distinct_ports()),
                   report::fixed(campaign.extrapolated_pps, 0), attribution,
                   match.phase == enrich::EtlPhase::kIpMatch       ? "IP match"
                   : match.phase == enrich::EtlPhase::kKeywordMatch ? "keyword"
                                                                    : "-"});
  }
  std::cout << "-- widest vertical scans --\n" << table;

  // How much of the telescope's view is researchers looking at researchers?
  std::uint64_t institutional_packets = 0;
  std::uint64_t total_packets = 0;
  for (const auto& campaign : result.campaigns) {
    total_packets += campaign.packets;
    if (registry.type_of(campaign.source) == enrich::ScannerType::kInstitutional) {
      institutional_packets += campaign.packets;
    }
  }
  std::cout << "\ninstitutional share of campaign traffic: "
            << report::percent(total_packets
                                   ? static_cast<double>(institutional_packets) /
                                         static_cast<double>(total_packets)
                                   : 0.0)
            << "\nFilter these out before quantifying 'malicious' scanning, or the\n"
               "study describes Censys, not criminals (§6.8).\n";
  return 0;
}
