// End-to-end: calibrated yearly ecosystems through the full pipeline,
// asserting the paper's qualitative shapes (who dominates, what is
// targeted) rather than absolute numbers.
#include <gtest/gtest.h>

#include "core/analysis_campaigns.h"
#include "core/analysis_summary.h"
#include "core/pipeline.h"
#include "enrich/registry.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"
#include "test_support.h"

namespace synscan {
namespace {

struct YearRun {
  core::PipelineResult result;
  core::PortTally ports;  ///< `result.port_tally()`, composed once
  simgen::GeneratorStats generated;
  simgen::YearConfig config;
};

// Heavier scale divisor keeps the end-to-end suite fast; shapes survive.
constexpr double kTestScale = 8.0;

const YearRun& run_year(int year) {
  static std::map<int, YearRun> cache;
  auto it = cache.find(year);
  if (it != cache.end()) return it->second;

  auto& run = cache[year];
  run.config = simgen::year_config(year, kTestScale);
  const auto& telescope = telescope::Telescope::paper_default();
  core::Pipeline pipeline(telescope);
  run.generated = testing::generate_into(pipeline, telescope, run.config);
  run.result = pipeline.finish();
  run.ports = run.result.port_tally();
  return run;
}

TEST(EndToEnd, TrafficGrowsAcrossTheDecade) {
  const auto& y2015 = run_year(2015);
  const auto& y2020 = run_year(2020);
  const double rate_2015 = static_cast<double>(y2015.ports.total_packets()) /
                           y2015.config.window_days;
  const double rate_2020 = static_cast<double>(y2020.ports.total_packets()) /
                           y2020.config.window_days;
  // The paper reports ~26x between 2015 and 2020. At the test suite's
  // extra 1/8 scale the fixed minimums (campaign qualification floor,
  // noise chatter) inflate the small 2015 window, compressing the ratio;
  // the full-scale benches recover ~21x. Demand at least 8x here.
  EXPECT_GT(rate_2020, 8.0 * rate_2015);
}

TEST(EndToEnd, NmapDominatesKnownTools2015) {
  const auto& run = run_year(2015);
  const auto shares = core::tool_shares(run.result.campaigns);
  const auto nmap = shares.by_scans.share(fingerprint::Tool::kNmap);
  EXPECT_GT(nmap, 0.2);
  EXPECT_GT(nmap, shares.by_scans.share(fingerprint::Tool::kMasscan));
  EXPECT_GT(nmap, shares.by_scans.share(fingerprint::Tool::kZmap));
  EXPECT_EQ(shares.by_scans.share(fingerprint::Tool::kMirai), 0.0);
}

TEST(EndToEnd, MiraiEraIn2017) {
  const auto& run = run_year(2017);
  const auto shares = core::tool_shares(run.result.campaigns);
  const auto mirai = shares.by_scans.share(fingerprint::Tool::kMirai);
  EXPECT_GT(mirai, 0.35);  // paper: 46.5%
  // IoT-era ports dominate the source ranking.
  const auto top_sources = run.ports.top_ports_by_sources(5);
  ASSERT_FALSE(top_sources.empty());
  bool iot_port_on_top = false;
  for (const auto& row : top_sources) {
    if (row.port == 2323 || row.port == 7545 || row.port == 5358) iot_port_on_top = true;
  }
  EXPECT_TRUE(iot_port_on_top);
}

TEST(EndToEnd, ZmapSurgeIn2024) {
  const auto& run = run_year(2024);
  const auto shares = core::tool_shares(run.result.campaigns);
  EXPECT_GT(shares.by_scans.share(fingerprint::Tool::kZmap), 0.45);  // paper: 59%
  EXPECT_LT(shares.by_scans.share(fingerprint::Tool::kNmap), 0.01);
  // §6: under 40% of 2024 *traffic* is attributable to the four tools.
  EXPECT_LT(shares.by_packets.known_share(), 0.6);
}

TEST(EndToEnd, MasscanCarriesTheTrafficAround2022) {
  const auto& run = run_year(2022);
  const auto shares = core::tool_shares(run.result.campaigns);
  // Few scans, most packets (paper: 9.9% of scans, 81% of packets).
  EXPECT_LT(shares.by_scans.share(fingerprint::Tool::kMasscan), 0.3);
  EXPECT_GT(shares.by_packets.share(fingerprint::Tool::kMasscan), 0.35);
}

TEST(EndToEnd, CampaignFragmentationAfter2022) {
  const auto& y2020 = run_year(2020);
  const auto& y2024 = run_year(2024);
  const double scans_rate_2020 =
      static_cast<double>(y2020.result.campaigns.size()) / y2020.config.window_days;
  const double scans_rate_2024 =
      static_cast<double>(y2024.result.campaigns.size()) / y2024.config.window_days;
  // Scans/day grow much faster than packets/day (paper: scans x5.9,
  // packets x1.2 between 2020 and 2024).
  const double pkts_rate_2020 =
      static_cast<double>(y2020.ports.total_packets()) / y2020.config.window_days;
  const double pkts_rate_2024 =
      static_cast<double>(y2024.ports.total_packets()) / y2024.config.window_days;
  EXPECT_GT(scans_rate_2024 / scans_rate_2020, 2.0 * pkts_rate_2024 / pkts_rate_2020);
}

TEST(EndToEnd, PortSpreadIncreasesOverTime) {
  const auto& y2015 = run_year(2015);
  const auto& y2024 = run_year(2024);
  // Share of the single most-scanned port, by campaigns: concentrated in
  // 2015, flat by 2024 (Table 1: 23.4% -> <1% at full scale).
  const auto top_2015 = core::top_ports_by_scans(y2015.result.campaigns, 1);
  const auto top_2024 = core::top_ports_by_scans(y2024.result.campaigns, 1);
  ASSERT_FALSE(top_2015.empty());
  ASSERT_FALSE(top_2024.empty());
  EXPECT_GT(top_2015[0].share, 2.0 * top_2024[0].share);
}

TEST(EndToEnd, IngressBlocksTelnetFrom2017) {
  EXPECT_EQ(run_year(2016).result.sensor.ingress_blocked, 0u);
  EXPECT_EQ(run_year(2016).ports.packets_on_port(445), 0u);
  // From 2017 the generator still emits 23/tcp (Mirai), but the sensor
  // drops it.
  EXPECT_GT(run_year(2017).result.sensor.ingress_blocked, 0u);
  EXPECT_EQ(run_year(2017).ports.packets_on_port(23), 0u);
}

TEST(EndToEnd, DetectedCampaignsMatchPlansApproximately) {
  const auto& run = run_year(2019);
  const auto planned = run.generated.planned_campaigns;
  const auto detected = run.result.campaigns.size();
  // Sub-threshold noise plans are excluded from planned_campaigns, so
  // detection should recover most planned campaigns (some split or merge
  // at window edges).
  EXPECT_GT(static_cast<double>(detected), 0.75 * static_cast<double>(planned));
  EXPECT_LT(static_cast<double>(detected), 1.35 * static_cast<double>(planned));
}

TEST(EndToEnd, SourcesPeakInMiraiEraThenDecline) {
  const auto sources_per_day = [](const YearRun& run) {
    return static_cast<double>(run.ports.total_sources()) / run.config.window_days;
  };
  EXPECT_GT(sources_per_day(run_year(2017)), sources_per_day(run_year(2015)));
  EXPECT_GT(sources_per_day(run_year(2017)), sources_per_day(run_year(2024)));
}

}  // namespace
}  // namespace synscan
