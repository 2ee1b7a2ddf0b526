// Quickstart: the full telescope-analytics loop in one file.
//
//   1. simulate a small scanning ecosystem aimed at a telescope,
//   2. write the traffic to a classic pcap file,
//   3. read it back (as you would a real capture),
//   4. detect campaigns, fingerprint tools, print the summary.
//
// Run:  ./quickstart [capture.pcap]
#include <filesystem>
#include <iostream>

#include "core/analysis_summary.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/port_tally.h"
#include "pcap/pcap.h"
#include "report/table.h"
#include "simgen/generator.h"
#include "telescope/telescope.h"

using namespace synscan;

int main(int argc, char** argv) {
  const std::filesystem::path capture_path =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() / "quickstart.pcap";

  // --- 1. A telescope and a workload -----------------------------------
  // One /20 of dark space; Telnet dropped at the ingress (like the
  // paper's telescope after Mirai).
  const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {{23, 0}});

  simgen::YearConfig workload;
  workload.year = 2024;
  workload.window_days = 1;
  workload.seed = 7;
  workload.port_table = {{443, 40}, {80, 30}, {22, 20}, {3389, 10}};
  workload.noise_sources = 50;

  simgen::GroupSpec scanners;
  scanners.name = "quickstart-masscan";
  scanners.tool = simgen::WireTool::kMasscan;
  scanners.pool = enrich::ScannerType::kHosting;
  scanners.sources = 5;
  scanners.campaigns = 8;
  scanners.hits_median = 400;
  scanners.pps_median = 2e6;  // small telescope: keep the scan short
  scanners.pps_sigma = 1.3;
  workload.groups.push_back(scanners);

  simgen::GroupSpec bots = scanners;
  bots.name = "quickstart-mirai";
  bots.tool = simgen::WireTool::kMirai;
  bots.pool = enrich::ScannerType::kResidential;
  bots.sources = 12;
  bots.campaigns = 12;
  bots.hits_median = 200;
  bots.port_table_override = {{2323, 70}, {80, 30}};
  workload.groups.push_back(bots);

  // --- 2. Generate and record ------------------------------------------
  {
    auto writer = pcap::Writer::create(capture_path);
    simgen::TrafficGenerator generator(workload, telescope,
                                       enrich::InternetRegistry::synthetic_default());
    const auto stats = generator.run([&](const net::RawFrame& f) { writer.write(f); });
    writer.flush();
    std::cout << "wrote " << stats.total_frames << " frames ("
              << stats.backscatter_frames << " backscatter) to " << capture_path
              << "\n";
  }

  // --- 3 + 4. Replay the capture through the pipeline -------------------
  // ingest_capture classifies the frames in batches (and leaves a `.spc`
  // probe cache next to the capture for the next replay).
  core::Pipeline pipeline(telescope);
  core::PortTally tally;
  pipeline.add_observer(tally);

  const auto ingested = core::ingest_capture(
      capture_path, telescope, core::IngestOptions{},
      [&](const telescope::ProbeBatch& batch) { pipeline.feed_probes(batch); });
  pipeline.absorb_sensor_counters(ingested.sensor);
  const auto result = pipeline.finish();

  std::cout << "\nsensor: " << result.sensor.scan_probes << " SYN probes, "
            << result.sensor.backscatter << " backscatter, "
            << result.sensor.ingress_blocked << " dropped at ingress (23/tcp)\n";
  std::cout << "campaigns detected: " << result.campaigns.size() << " ("
            << result.tracker.subthreshold_flows << " sub-threshold sources)\n\n";

  report::Table table({"source", "tool", "packets", "ports", "pps (inferred)",
                       "IPv4 coverage"});
  for (const auto& campaign : result.campaigns) {
    table.add_row({campaign.source.to_string(),
                   std::string(fingerprint::to_string(campaign.tool)),
                   std::to_string(campaign.packets),
                   std::to_string(campaign.distinct_ports()),
                   report::fixed(campaign.extrapolated_pps, 0),
                   report::percent(campaign.coverage_fraction, 3)});
  }
  std::cout << table;

  const auto summary =
      core::yearly_summary(workload.year, workload.window_days, tally, result.campaigns);
  std::cout << "\ntool shares by scans: masscan "
            << report::percent(summary.tools.by_scans.share(fingerprint::Tool::kMasscan))
            << ", mirai "
            << report::percent(summary.tools.by_scans.share(fingerprint::Tool::kMirai))
            << ", unknown "
            << report::percent(summary.tools.by_scans.share(fingerprint::Tool::kUnknown))
            << "\n";
  return 0;
}
