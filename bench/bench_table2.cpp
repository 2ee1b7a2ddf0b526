// Table 2: unique IP addresses, scans and packets per scanner type
// (Institutional / Hosting / Enterprise / Residential / Unknown).
//
// The paper aggregates over the full dataset; this bench uses the
// 2022 window (the era Table 2 is dominated by) and prints the paper's
// full-dataset row alongside.
#include <iostream>

#include "bench_common.h"
#include "core/analysis_types.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace synscan;
  const auto options = bench::parse_options(argc, argv);
  bench::print_banner("Table 2 — scanner types", "§6.6, Table 2", options);

  const int year = options.year.value_or(2022);
  auto config = simgen::year_config(year, options.scale);
  if (options.seed) config.seed = *options.seed;

  core::TypeTally types(bench::shared_registry());
  core::Pipeline pipeline(bench::shared_telescope());
  pipeline.add_observer(types);
  bench::generate_into(pipeline, config);
  const auto result = pipeline.finish();

  const auto table =
      core::type_share_table(types, result.campaigns, bench::shared_registry());

  // Paper values (full 10-year dataset).
  struct PaperRow {
    enrich::ScannerType type;
    double sources, scans, packets;
  };
  const PaperRow paper[] = {
      {enrich::ScannerType::kHosting, 0.0087, 0.0561, 0.1852},
      {enrich::ScannerType::kEnterprise, 0.0671, 0.1575, 0.0385},
      {enrich::ScannerType::kInstitutional, 0.0016, 0.0745, 0.3263},
      {enrich::ScannerType::kResidential, 0.5492, 0.4612, 0.2339},
      {enrich::ScannerType::kUnknown, 0.3733, 0.2507, 0.2161},
  };

  report::Table out({"type", "sources", "(paper)", "scans", "(paper)", "packets",
                     "(paper)"});
  for (const auto& row : paper) {
    const auto& measured = table[enrich::scanner_type_index(row.type)];
    out.add_row({std::string(enrich::to_string(row.type)),
                 report::percent(measured.source_share, 2), report::percent(row.sources, 2),
                 report::percent(measured.scan_share, 2), report::percent(row.scans, 2),
                 report::percent(measured.packet_share, 2),
                 report::percent(row.packets, 2)});
  }
  std::cout << "window: " << year << " (paper column aggregates 2015-2024)\n\n" << out;

  std::cout << "\nKey check — institutional: a sliver of sources ("
            << report::percent(
                   table[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)]
                       .source_share,
                   2)
            << ") contributes "
            << report::percent(
                   table[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)]
                       .packet_share,
                   1)
            << " of all packets (paper: 0.16% of sources, 32.6% of packets)\n";
  return 0;
}
