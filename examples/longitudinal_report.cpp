// The paper's core argument, as a program: the scanning ecosystem is so
// volatile that only longitudinal measurement gets it right.
//
// Replays three eras (2015, 2020, 2024) through the identical pipeline
// and prints what a study anchored in each single year would have
// concluded — then the longitudinal view across all three.
//
// Run:  ./longitudinal_report [--scale=16]
#include <iostream>
#include <string_view>

#include "core/analysis_campaigns.h"
#include "core/analysis_summary.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "report/table.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"
#include "stats/regression.h"

using namespace synscan;

namespace {

struct EraView {
  int year;
  core::YearlySummary summary;
  std::string dominant_tool;
  std::string top_port;
};

EraView study_of(int year, double scale) {
  const auto& telescope = telescope::Telescope::paper_default();
  core::Pipeline pipeline(telescope);
  simgen::TrafficGenerator generator(simgen::year_config(year, scale), telescope,
                                     enrich::InternetRegistry::synthetic_default());
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    pipeline.feed_probes(batch);
  });
  (void)generator.run([&](const net::RawFrame& f) { batcher.push(f); });
  pipeline.absorb_sensor_counters(batcher.finish());
  const auto result = pipeline.finish();

  EraView view;
  view.year = year;
  view.summary = core::yearly_summary(year, simgen::year_config(year, scale).window_days,
                                      result.port_tally(), result.campaigns);
  fingerprint::Tool best = fingerprint::Tool::kUnknown;
  double best_share = 0.0;
  for (const auto tool : fingerprint::kAllTools) {
    if (tool == fingerprint::Tool::kUnknown) continue;
    const auto share = view.summary.tools.by_scans.share(tool);
    if (share > best_share) {
      best_share = share;
      best = tool;
    }
  }
  view.dominant_tool = std::string(fingerprint::to_string(best)) + " (" +
                       report::percent(best_share) + ")";
  if (!view.summary.top_ports_by_packets.empty()) {
    view.top_port = std::to_string(view.summary.top_ports_by_packets[0].port) + " (" +
                    report::percent(view.summary.top_ports_by_packets[0].share) + ")";
  }
  return view;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 16.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) scale = std::stod(std::string(arg.substr(8)));
  }

  std::vector<EraView> eras;
  for (const int year : {2015, 2020, 2024}) {
    std::cout << "replaying " << year << "...\n";
    eras.push_back(study_of(year, scale));
  }

  std::cout << "\nWhat a single-snapshot study would conclude:\n\n";
  report::Table table({"anchored in", "pkts/day (scaled)", "scans/mo (scaled)",
                       "dominant known tool", "hottest port", "pkts/scan"});
  for (const auto& era : eras) {
    table.add_row({std::to_string(era.year),
                   report::human_count(era.summary.packets_per_day),
                   report::human_count(era.summary.scans_per_month), era.dominant_tool,
                   era.top_port, report::fixed(era.summary.mean_packets_per_scan, 0)});
  }
  std::cout << table;

  std::vector<double> years;
  std::vector<double> volumes;
  for (const auto& era : eras) {
    years.push_back(era.year);
    volumes.push_back(era.summary.packets_per_day);
  }
  const auto growth = stats::annual_growth_rate(volumes);
  std::cout << "\nLongitudinal view: traffic grows "
            << report::percent(growth)
            << "/era-step while the dominant tool changes every era\n"
            << "(nmap -> masscan/mirai -> zmap) and the hottest port migrates.\n"
            << "Any one snapshot \"largely over- or underestimates\" the others'\n"
            << "ecosystems — the paper's case for long-term measurement (§4.4, §7).\n";
  return 0;
}
