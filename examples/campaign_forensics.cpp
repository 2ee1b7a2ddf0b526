// Deep dive into a single campaign: timeline, rate, coverage
// extrapolation and sharding detection.
//
// Picks the largest campaign of a simulated window and reconstructs what
// an analyst would: when it ran, how fast it really was Internet-wide,
// how much of IPv4 it covered — and whether other sources in the same
// /24 started an identical scan at the same time (ZMap sharding, §6.4).
//
// Run:  ./campaign_forensics [--scale=8]
#include <iostream>
#include <string_view>

#include "core/ingest.h"
#include "core/pipeline.h"
#include "report/table.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"
#include "stats/timeseries.h"

using namespace synscan;

int main(int argc, char** argv) {
  double scale = 8.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) scale = std::stod(std::string(arg.substr(8)));
  }

  const auto& telescope = telescope::Telescope::paper_default();
  const auto config = simgen::year_config(2024, scale);
  core::Pipeline pipeline(telescope);

  // Keep a per-source activity series for the timeline reconstruction.
  struct Timeline final : core::ProbeObserver {
    explicit Timeline(net::TimeUs origin)
        : series(origin, net::kMicrosPerHour) {}
    void on_probe(const telescope::ScanProbe& probe) override {
      series.add(probe.timestamp_us);
    }
    stats::BucketedSeries series;
  } timeline(config.start_time);
  pipeline.add_observer(timeline);

  simgen::TrafficGenerator generator(config, telescope,
                                     enrich::InternetRegistry::synthetic_default());
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    pipeline.feed_probes(batch);
  });
  (void)generator.run([&](const net::RawFrame& f) { batcher.push(f); });
  pipeline.absorb_sensor_counters(batcher.finish());
  const auto result = pipeline.finish();
  if (result.campaigns.empty()) {
    std::cout << "no campaigns detected\n";
    return 1;
  }

  const auto* subject = &result.campaigns.front();
  for (const auto& campaign : result.campaigns) {
    if (campaign.packets > subject->packets) subject = &campaign;
  }

  const auto model = telescope.model();
  std::cout << "=== campaign #" << subject->id << " ===\n"
            << "source:            " << subject->source.to_string() << "\n"
            << "tool fingerprint:  " << fingerprint::to_string(subject->tool) << "\n"
            << "telescope hits:    " << subject->packets << " packets, "
            << subject->distinct_destinations << " distinct dark addresses\n"
            << "ports targeted:    " << subject->distinct_ports() << "\n"
            << "duration:          "
            << report::fixed(subject->duration_seconds() / 3600.0, 2) << " h\n"
            << "inferred rate:     " << report::fixed(subject->extrapolated_pps, 0)
            << " pps Internet-wide (" << report::fixed(subject->speed_mbps(), 1)
            << " Mbps)\n"
            << "inferred volume:   "
            << report::human_count(subject->extrapolated_packets)
            << " probes across IPv4\n"
            << "IPv4 coverage:     " << report::percent(subject->coverage_fraction, 2)
            << "\n"
            << "detection check:   a scan this fast is seen by the telescope within "
            << report::fixed(model.seconds_to_detect(subject->extrapolated_pps, 0.999),
                             1)
            << " s with 99.9% probability\n";

  // Sharding detection: same /24, overlapping start, same port set.
  std::vector<const core::Campaign*> peers;
  for (const auto& campaign : result.campaigns) {
    if (campaign.id == subject->id) continue;
    if (campaign.source.slash24() != subject->source.slash24()) continue;
    const auto dt = campaign.first_seen_us - subject->first_seen_us;
    if (dt > -net::kMicrosPerHour && dt < net::kMicrosPerHour) peers.push_back(&campaign);
  }
  if (!peers.empty()) {
    std::cout << "\nsharding: " << peers.size()
              << " peer campaigns from the same /24 started within an hour —\n"
              << "their joint coverage is "
              << report::percent(
                     std::min(1.0, subject->coverage_fraction *
                                       static_cast<double>(peers.size() + 1)),
                     1)
              << " of IPv4 (one logical scan split over many hands, §4.1/§6.4)\n";
  } else {
    std::cout << "\nsharding: no co-started peers in " << subject->source.to_string()
              << "'s /24 — a single-source scan\n";
  }

  // Hourly activity of the whole telescope around the campaign.
  std::cout << "\ntelescope-wide hourly probe counts (first 24 h of the window):\n";
  const auto dense = timeline.series.dense();
  for (std::size_t hour = 0; hour < std::min<std::size_t>(24, dense.size()); ++hour) {
    std::cout << "  h" << hour << ": " << dense[hour] << "\n";
  }
  return 0;
}
