// Figures 9 & 10 (appendix): ports scanned by each known scanner in
// 2023 vs 2024, plus the appendix's ETL statistics (organizations
// identified, share of sources and traffic).
#include <iostream>
#include <map>

#include "bench_common.h"
#include "core/analysis_types.h"
#include "enrich/etl.h"
#include "enrich/known_scanners.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace synscan;
  const auto options = bench::parse_options(argc, argv);
  bench::print_banner("Figures 9/10 — known scanners, 2023 vs 2024", "Appendix A",
                      options);

  std::map<std::string, std::array<std::uint32_t, 2>> ports_by_org;
  std::array<double, 2> inst_packet_share{};
  std::array<double, 2> inst_source_share{};
  std::array<std::size_t, 2> org_count{};

  for (const int year : {2023, 2024}) {
    const auto index = static_cast<std::size_t>(year - 2023);
    auto config = simgen::year_config(year, options.scale);
    if (options.seed) config.seed = *options.seed;

    core::TypeTally types(bench::shared_registry());
    core::Pipeline pipeline(bench::shared_telescope());
    pipeline.add_observer(types);
    bench::generate_into(pipeline, config);
    const auto result = pipeline.finish();

    const auto coverage =
        core::org_port_coverage(result.campaigns, bench::shared_registry());
    for (const auto& org : coverage) {
      ports_by_org[org.organization][index] = org.distinct_ports;
    }
    org_count[index] = coverage.size();
    inst_packet_share[index] =
        types.total_packets() == 0
            ? 0.0
            : static_cast<double>(types.packets(enrich::ScannerType::kInstitutional)) /
                  static_cast<double>(types.total_packets());
    inst_source_share[index] =
        types.total_sources() == 0
            ? 0.0
            : static_cast<double>(types.sources(enrich::ScannerType::kInstitutional)) /
                  static_cast<double>(types.total_sources());
  }

  report::Table table({"organization", "ports 2023", "ports 2024", "trend"});
  for (const auto& [org, ports] : ports_by_org) {
    const char* trend = ports[1] > ports[0] * 5 / 4   ? "scaling up"
                        : ports[1] * 5 / 4 < ports[0] ? "scaling down"
                                                       : "steady";
    table.add_row({org, std::to_string(ports[0]), std::to_string(ports[1]), trend});
  }
  std::cout << table;

  std::cout << "\nknown-scanner footprint (paper: 36 orgs / 0.36% of sources / 51.3%\n"
               "of traffic in 2023; 40 orgs / 0.62% / 50.9% in 2024):\n";
  for (const int year : {2023, 2024}) {
    const auto index = static_cast<std::size_t>(year - 2023);
    std::cout << "  " << year << ": " << org_count[index] << " organizations seen, "
              << report::percent(inst_source_share[index], 2) << " of sources, "
              << report::percent(inst_packet_share[index]) << " of packets\n";
  }

  // The appendix's ETL over synthetic intelligence records for the known
  // sources observed in 2024.
  const enrich::KnownScannerEtl etl;
  std::vector<enrich::SourceIntelRecord> records;
  for (const auto& spec : enrich::known_scanner_specs()) {
    enrich::SourceIntelRecord ip_record;
    ip_record.ip = spec.prefix.at(3);
    records.push_back(ip_record);  // phase-1 candidate
    enrich::SourceIntelRecord rdns_record;
    rdns_record.ip = net::Ipv4Address::from_octets(9, 9, 9, 9);  // outside the prefix
    rdns_record.reverse_dns = enrich::ascii_lower(spec.name) + ".example.net";
    records.push_back(rdns_record);  // phase-2 candidate
  }
  const auto summary = etl.run(records);
  std::cout << "\nETL pipeline (appendix): " << summary.total << " intel records -> "
            << summary.ip_matched << " IP-matched (phase 1), " << summary.keyword_matched
            << " keyword-matched (phase 2), "
            << summary.total - summary.matched() << " unmatched\n";
  return 0;
}
