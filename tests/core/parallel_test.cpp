#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>

#include "simgen/generator.h"
#include "test_support.h"

namespace synscan::core {
namespace {

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {{23, 0}});
  return telescope;
}

std::vector<net::RawFrame> workload() {
  static const std::vector<net::RawFrame> frames = [] {
    simgen::YearConfig config;
    config.window_days = 1;
    config.seed = 4242;
    config.port_table = {{80, 60}, {22, 40}};
    config.noise_sources = 40;
    config.backscatter_fraction = 0.05;
    simgen::GroupSpec group;
    group.name = "parallel-workload";
    group.tool = simgen::WireTool::kZmap;
    group.pool = enrich::ScannerType::kHosting;
    group.sources = 6;
    group.campaigns = 12;
    group.hits_median = 300;
    group.hits_sigma = 1.2;
    group.pps_median = 500000;
    group.pps_sigma = 1.2;
    config.groups.push_back(group);

    std::vector<net::RawFrame> out;
    simgen::TrafficGenerator generator(config, test_telescope(),
                                       enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& f) { out.push_back(f); });
    return out;
  }();
  return frames;
}

/// Summary of campaigns that must be invariant across worker counts.
std::multimap<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> summarize(
    const std::vector<Campaign>& campaigns) {
  std::multimap<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> out;
  for (const auto& campaign : campaigns) {
    out.emplace(campaign.source.value(),
                std::make_pair(campaign.packets, campaign.distinct_destinations));
  }
  return out;
}

TEST(ParallelAnalyzer, MatchesSerialPipeline) {
  const auto frames = workload();

  Pipeline serial(test_telescope());
  testing::feed_per_frame(serial, test_telescope(), frames);
  const auto serial_result = serial.finish();

  ParallelAnalyzer parallel(test_telescope(), 4);
  testing::feed_batched(parallel, test_telescope(), frames);
  const auto parallel_result = parallel.finish();

  EXPECT_EQ(parallel_result.sensor.scan_probes, serial_result.sensor.scan_probes);
  EXPECT_EQ(parallel_result.sensor.backscatter, serial_result.sensor.backscatter);
  EXPECT_EQ(parallel_result.sensor.ingress_blocked,
            serial_result.sensor.ingress_blocked);
  EXPECT_EQ(parallel_result.tracker.probes, serial_result.tracker.probes);
  EXPECT_EQ(parallel_result.tracker.subthreshold_flows,
            serial_result.tracker.subthreshold_flows);
  ASSERT_EQ(parallel_result.campaigns.size(), serial_result.campaigns.size());
  EXPECT_EQ(summarize(parallel_result.campaigns), summarize(serial_result.campaigns));
}

TEST(ParallelAnalyzer, DeterministicAcrossWorkerCounts) {
  const auto frames = workload();
  std::vector<PipelineResult> results;
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    ParallelAnalyzer analyzer(test_telescope(), workers);
    testing::feed_batched(analyzer, test_telescope(), frames);
    results.push_back(analyzer.finish());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(summarize(results[i].campaigns), summarize(results[0].campaigns));
    EXPECT_EQ(results[i].sensor.scan_probes, results[0].sensor.scan_probes);
    // Merged order is deterministic too.
    ASSERT_EQ(results[i].campaigns.size(), results[0].campaigns.size());
    for (std::size_t c = 0; c < results[i].campaigns.size(); ++c) {
      EXPECT_EQ(results[i].campaigns[c].source, results[0].campaigns[c].source);
      EXPECT_EQ(results[i].campaigns[c].id, c + 1);
    }
  }
}

TEST(ParallelAnalyzer, RejectsZeroWorkers) {
  EXPECT_THROW(ParallelAnalyzer(test_telescope(), 0), std::invalid_argument);
}

TEST(ParallelAnalyzer, FinishTwiceThrows) {
  ParallelAnalyzer analyzer(test_telescope(), 2);
  (void)analyzer.finish();
  EXPECT_THROW((void)analyzer.finish(), std::logic_error);
}

TEST(ParallelAnalyzer, DestructorWithoutFinishIsClean) {
  const auto frames = workload();
  ParallelAnalyzer analyzer(test_telescope(), 3);
  testing::feed_batched(analyzer, test_telescope(),
                        std::span(frames).first(std::min<std::size_t>(500, frames.size())));
  // No finish(): the destructor must join without deadlock or leak.
}

}  // namespace
}  // namespace synscan::core
