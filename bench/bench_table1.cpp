// Table 1: scan volume, five most targeted ports by packets/sources/
// scans, scans/month and tool shares, for every year 2015-2024.
//
// Prints measured values (rescaled to paper units) next to the published
// numbers.
#include <iostream>

#include "bench_common.h"
#include "core/analysis_campaigns.h"
#include "report/table.h"

namespace {

using namespace synscan;

std::string port_list(const std::vector<core::PortCount>& rows) {
  std::string out;
  for (const auto& row : rows) {
    if (!out.empty()) out += " ";
    out += std::to_string(row.port) + "(" + report::percent(row.share) + ")";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_banner("Table 1 — ten years of Internet scanning", "§4.1, Table 1",
                      options);

  report::Table volume({"year", "pkts/day (meas)", "pkts/day (paper)",
                        "scans/mo (meas)", "scans/mo (paper)", "pkts/scan",
                        "sources"});
  report::Table tools({"year", "masscan", "(paper)", "nmap", "(paper)", "mirai",
                       "(paper)", "zmap", "(paper)", "known scans", "known pkts"});
  report::Table ports({"year", "top5 by packets", "top5 by sources", "top5 by scans"});
  ports.set_align(1, report::Align::kLeft);
  ports.set_align(2, report::Align::kLeft);
  ports.set_align(3, report::Align::kLeft);

  const int first = options.year.value_or(simgen::kFirstYear);
  const int last = options.year.value_or(simgen::kLastYear);
  for (int year = first; year <= last; ++year) {
    const auto run = bench::run_year(year, options);
    const auto& paper = simgen::paper_row(year);
    const auto summary = core::yearly_summary(year, run.config.window_days,
                                              run.result.port_tally(), run.result.campaigns);

    volume.add_row({std::to_string(year),
                    report::human_count(summary.packets_per_day *
                                        bench::packet_upscale(options)),
                    report::human_count(paper.packets_per_day),
                    report::human_count(summary.scans_per_month *
                                        bench::scan_upscale(options)),
                    report::human_count(paper.scans_per_month),
                    report::fixed(summary.mean_packets_per_scan, 0),
                    report::human_count(static_cast<double>(summary.distinct_sources))});

    const auto& by_scans = summary.tools.by_scans;
    tools.add_row({std::to_string(year),
                   report::percent(by_scans.share(fingerprint::Tool::kMasscan)),
                   report::percent(paper.masscan_scan_share),
                   report::percent(by_scans.share(fingerprint::Tool::kNmap)),
                   report::percent(paper.nmap_scan_share),
                   report::percent(by_scans.share(fingerprint::Tool::kMirai)),
                   report::percent(paper.mirai_scan_share),
                   report::percent(by_scans.share(fingerprint::Tool::kZmap)),
                   report::percent(paper.zmap_scan_share),
                   report::percent(by_scans.known_share()),
                   report::percent(summary.tools.by_packets.known_share())});

    ports.add_row({std::to_string(year), port_list(summary.top_ports_by_packets),
                   port_list(summary.top_ports_by_sources),
                   port_list(summary.top_ports_by_scans)});
  }

  std::cout << "\n-- Volume --\n" << volume;
  std::cout << "\n-- Tools by scans (measured vs paper) --\n" << tools;
  std::cout << "\npaper anchors for the known-tool share: 34% of scans / 25% of\n"
               "packets in 2015; 54% / 92% in 2020; under 40% of packets by 2024.\n";
  std::cout << "\n-- Top ports --\n" << ports;
  return 0;
}
