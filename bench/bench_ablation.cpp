// Methodology ablation (§3.4): how sensitive are the campaign counts to
// the detection thresholds?
//
// The paper defines a scan as >=100 distinct destinations at >=100 pps
// with a 1 h expiry, and explicitly contrasts this with Durumeric et
// al.'s looser 10 pps / 480 s definition. This bench replays one window
// under both definitions (and a sweep in between) and reports how the
// campaign census, the blocklist-decay claim and the noise level move.
#include <iostream>

#include "bench_common.h"
#include "core/blocklist.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace synscan;
  const auto options = bench::parse_options(argc, argv);
  bench::print_banner("§3.4 ablation — campaign-definition thresholds", "§3.4",
                      options);

  const int year = options.year.value_or(2020);
  auto config = simgen::year_config(year, options.scale);
  if (options.seed) config.seed = *options.seed;

  // Capture the probe stream once, replay through each tracker config.
  std::vector<telescope::ScanProbe> probes;
  {
    core::FrameBatcher batcher(bench::shared_telescope(),
                               [&](const telescope::ProbeBatch& batch) {
                                 for (std::size_t i = 0; i < batch.size(); ++i) {
                                   probes.push_back(batch.get(i));
                                 }
                               });
    simgen::TrafficGenerator generator(config, bench::shared_telescope(),
                                       bench::shared_registry());
    (void)generator.run([&](const net::RawFrame& frame) { batcher.push(frame); });
    (void)batcher.finish();
  }
  std::cout << "window: " << year << ", " << probes.size() << " probes\n\n";

  struct Variant {
    const char* name;
    core::TrackerConfig tracker;
  };
  std::vector<Variant> variants;
  variants.push_back({"paper (100 dests, 100 pps, 1 h)", {}});
  {
    core::TrackerConfig loose;
    loose.min_distinct_destinations = 10;
    loose.min_internet_pps = 10.0;
    loose.expiry = 480 * net::kMicrosPerSecond;
    variants.push_back({"Durumeric et al. (10, 10 pps, 480 s)", loose});
  }
  for (const std::uint32_t dests : {50u, 200u, 400u}) {
    core::TrackerConfig tracker;
    tracker.min_distinct_destinations = dests;
    variants.push_back(
        {dests == 50 ? "50-dest floor" : dests == 200 ? "200-dest floor" : "400-dest floor",
         tracker});
  }
  {
    core::TrackerConfig fast;
    fast.min_internet_pps = 1000.0;
    variants.push_back({"1000 pps floor", fast});
  }
  {
    core::TrackerConfig short_expiry;
    short_expiry.expiry = 5 * net::kMicrosPerMinute;
    variants.push_back({"5 min expiry", short_expiry});
  }

  report::Table table({"definition", "campaigns", "subthreshold flows",
                       "subthreshold pkts", "mean pkts/campaign"});
  for (const auto& variant : variants) {
    std::vector<core::Campaign> campaigns;
    core::CampaignTracker tracker(variant.tracker,
                                  bench::shared_telescope().monitored_count(),
                                  [&](core::Campaign&& campaign) {
                                    campaigns.push_back(std::move(campaign));
                                  });
    for (const auto& probe : probes) tracker.feed(probe);
    tracker.finish();
    std::uint64_t packets = 0;
    for (const auto& campaign : campaigns) packets += campaign.packets;
    table.add_row({variant.name, std::to_string(campaigns.size()),
                   std::to_string(tracker.counters().subthreshold_flows),
                   std::to_string(tracker.counters().subthreshold_packets),
                   campaigns.empty()
                       ? "-"
                       : report::fixed(static_cast<double>(packets) /
                                           static_cast<double>(campaigns.size()),
                                       0)});
  }
  std::cout << table;
  std::cout << "\nreading: the loose definition sweeps the noise sources into the\n"
               "campaign census (inflating counts), while the paper's stricter bound\n"
               "keeps only Internet-wide behavior — the justification of §3.4.\n";

  // Blocklist decay under the paper definition (§4.4/§6.6 implication).
  {
    std::vector<core::Campaign> campaigns;
    core::CampaignTracker tracker({}, bench::shared_telescope().monitored_count(),
                                  [&](core::Campaign&& campaign) {
                                    campaigns.push_back(std::move(campaign));
                                  });
    for (const auto& probe : probes) tracker.feed(probe);
    tracker.finish();
    const auto curve =
        core::blocklist_decay_curve(campaigns, config.start_time, 3, 0, 7);
    std::cout << "\nblocklist decay (harvest day 3, campaign block-rate per day):\n";
    for (std::size_t day = 0; day < curve.size(); ++day) {
      std::cout << "  day +" << day + 1 << ": " << report::percent(curve[day]) << "\n";
    }
    std::cout << "only recurring (institutional) sources stay blockable — shared\n"
                 "scanner lists are a real-time feed, not an archive (§4.4).\n";
  }
  return 0;
}
