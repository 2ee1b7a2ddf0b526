// Figure 5: distribution of scanner types over the top-15 targeted
// ports (plus the paper's call-outs: 443 institutional-heavy, 8545
// enterprise-heavy).
#include <iostream>

#include "bench_common.h"
#include "core/analysis_types.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace synscan;
  const auto options = bench::parse_options(argc, argv);
  bench::print_banner("Figure 5 — scanner types per port (top 15)", "§6.7, Fig. 5",
                      options);

  const int year = options.year.value_or(2022);
  auto config = simgen::year_config(year, options.scale);
  if (options.seed) config.seed = *options.seed;

  core::Pipeline pipeline(bench::shared_telescope());
  bench::generate_into(pipeline, config);
  const auto result = pipeline.finish();
  const auto tally = result.port_tally();
  const core::TypeView types(tally, bench::shared_registry());

  std::vector<std::uint16_t> ports;
  for (const auto& row : tally.top_ports_by_packets(15)) ports.push_back(row.port);
  // Always include the paper's two call-out ports.
  for (const std::uint16_t wanted : {static_cast<std::uint16_t>(443),
                                     static_cast<std::uint16_t>(8545)}) {
    if (std::find(ports.begin(), ports.end(), wanted) == ports.end()) {
      ports.push_back(wanted);
    }
  }

  report::Table table({"port", "institutional", "hosting", "enterprise", "residential",
                       "unknown"});
  for (const auto port : ports) {
    const auto mix = types.port_type_mix(port);
    table.add_row(
        {std::to_string(port),
         report::percent(mix[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)]),
         report::percent(mix[enrich::scanner_type_index(enrich::ScannerType::kHosting)]),
         report::percent(mix[enrich::scanner_type_index(enrich::ScannerType::kEnterprise)]),
         report::percent(mix[enrich::scanner_type_index(enrich::ScannerType::kResidential)]),
         report::percent(mix[enrich::scanner_type_index(enrich::ScannerType::kUnknown)])});
  }
  std::cout << "window: " << year << "\n\n" << table;

  const auto https = types.port_type_mix(443);
  const auto jsonrpc = types.port_type_mix(8545);
  std::cout << "\ncall-outs (paper): 443 is institutional-heavy (41% of its scans),\n"
            << "8545 (JSON-RPC/Ethereum) is disproportionally enterprise (FPT space).\n"
            << "measured: 443 institutional "
            << report::percent(
                   https[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)])
            << ", 8545 enterprise "
            << report::percent(
                   jsonrpc[enrich::scanner_type_index(enrich::ScannerType::kEnterprise)])
            << "\n";
  return 0;
}
