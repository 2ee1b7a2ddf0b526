// §5.1: coverage of the port space — privileged-port coverage in 2015 vs
// later years, probes per port per day, the 80->8080 co-scan trend, and
// the (absent) relation between deployed services and scan intensity.
#include <iostream>

#include "bench_common.h"
#include "report/table.h"
#include "simgen/services.h"
#include "stats/hypothesis.h"

int main(int argc, char** argv) {
  using namespace synscan;
  const auto options = bench::parse_options(argc, argv);
  bench::print_banner("§5.1 — coverage of the entire port space", "§5.1", options);

  report::Table table({"year", "privileged coverage", "ports >=1 probe",
                       "min probes/port/day (paper units)", "80->8080 co-scan",
                       "(paper)"});
  const auto paper_coscan = [](int year) -> std::string {
    if (year == 2015) return "18%";
    if (year >= 2020) return "87%";
    return "-";
  };

  core::PortTally last_tally;  // keep the final year's tally for the service check
  int last_year = 0;
  for (const int year : {2015, 2018, 2020, 2022, 2024}) {
    if (options.year && year != *options.year) continue;
    const auto run = bench::run_year(year, options);
    // Scaled floor -> paper units: multiply by the packet scale.
    const double floor_paper_units =
        1.0 * bench::packet_upscale(options) / run.config.window_days;
    std::uint64_t min_nonzero = 0;
    auto tally = run.result.port_tally();
    const auto with_any = tally.ports_with_at_least(1);
    (void)min_nonzero;
    table.add_row({std::to_string(year),
                   report::percent(tally.privileged_port_coverage()),
                   std::to_string(with_any),
                   report::fixed(floor_paper_units, 0),
                   report::percent(tally.co_scan_fraction(80, 8080)),
                   paper_coscan(year)});
    last_tally = std::move(tally);
    last_year = year;
  }
  std::cout << table;
  std::cout << "\npaper shape: 31% of privileged ports probed above the noise floor in\n"
               "2015; by 2022 every port receives >1,000 probes/day (>1,500 by 2024);\n"
               "the 80->8080 co-scan share grows 18% -> 87% and plateaus.\n";

  // Services vs scans: complete vertical scan of 100,000 random hosts.
  const simgen::ServiceDeployment deployment(0xd15c0);
  const auto services = deployment.services_per_port(100000);
  std::vector<double> service_counts;
  std::vector<double> scan_counts;
  for (std::uint32_t port = 1; port < 65536; ++port) {
    service_counts.push_back(static_cast<double>(services[port]));
    scan_counts.push_back(static_cast<double>(
        last_tally.packets_on_port(static_cast<std::uint16_t>(port))));
  }
  const auto correlation = stats::pearson(service_counts, scan_counts);
  std::cout << "\nservices-vs-scans correlation over all ports (window " << last_year
            << "): R = " << report::fixed(correlation.r, 3)
            << ", p = " << report::fixed(correlation.p_value, 4)
            << "\n(paper: R = 0.047 — scanners do not target where services live)\n";
  return 0;
}
