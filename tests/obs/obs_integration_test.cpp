// Integration: the instrumented pipeline populates the global registry
// end-to-end, the invariants between stages hold, and every metric name
// documented in docs/OBSERVABILITY.md is actually shipped.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/pipeline.h"
#include "obs/run_report.h"
#include "pcap/pcap.h"
#include "simgen/generator.h"
#include "test_support.h"

namespace synscan {
namespace {

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {});
  return telescope;
}

simgen::YearConfig small_config() {
  simgen::YearConfig config;
  config.year = 2021;
  config.window_days = 1;
  config.seed = 4242;
  config.port_table = {{80, 70}, {443, 30}};
  config.noise_sources = 10;
  config.backscatter_fraction = 0.1;

  simgen::GroupSpec group;
  group.name = "obs-group";
  group.tool = simgen::WireTool::kZmap;
  group.pool = enrich::ScannerType::kHosting;
  group.sources = 4;
  group.campaigns = 4;
  group.hits_median = 250;
  group.hits_sigma = 1.1;
  group.pps_median = 500000;
  group.pps_sigma = 1.1;
  config.groups.push_back(group);
  return config;
}

/// Every test here drives the *global* registry, exactly like the CLI
/// and benches do; serialize access and leave a clean slate behind.
class ObsIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().clear();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::MetricsRegistry::global().clear();
  }
};

std::uint64_t global_counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST_F(ObsIntegration, SensorProbesEqualTrackerProbes) {
  core::Pipeline pipeline(test_telescope());
  testing::generate_into(pipeline, test_telescope(), small_config());
  const auto result = pipeline.finish();

  const auto report = obs::RunReport::capture("integration", &result);

  // Every probe the sensor forwarded reached the tracker: the paper's
  // pipeline loses nothing between §3.2 classification and §3.4
  // campaign tracking.
  ASSERT_GT(result.sensor.scan_probes, 0u);
  EXPECT_EQ(global_counter("sensor.scan_probes"), result.sensor.scan_probes);
  EXPECT_EQ(global_counter("tracker.probes"), result.tracker.probes);
  EXPECT_EQ(global_counter("sensor.scan_probes"), global_counter("tracker.probes"));
  // The pipeline-level tallies agree with the stage-level ones.
  EXPECT_EQ(global_counter("pipeline.probes"), result.sensor.scan_probes);
  EXPECT_GT(global_counter("pipeline.batches"), 0u);

  // The captured report carries the same numbers.
  bool found = false;
  for (const auto& [name, value] : report.metrics.counters) {
    if (name == "sensor.scan_probes") {
      EXPECT_EQ(value, result.sensor.scan_probes);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsIntegration, ParallelAnalyzerPublishesWorkerMetrics) {
  constexpr std::size_t kWorkers = 3;
  core::Pipeline pipeline(test_telescope(), kWorkers);
  testing::generate_into(pipeline, test_telescope(), small_config());
  const auto result = pipeline.finish();

  auto& registry = obs::MetricsRegistry::global();
  EXPECT_EQ(registry.gauge("parallel.workers").value(),
            static_cast<std::int64_t>(kWorkers));
  // Every probe was dispatched to exactly one worker, one slice at a time.
  EXPECT_EQ(global_counter("parallel.items"), result.sensor.scan_probes);
  EXPECT_GT(global_counter("parallel.slices"), 0u);
  EXPECT_EQ(registry.histogram("parallel.batch_items").data().count,
            global_counter("parallel.slices"));
  for (std::size_t i = 0; i < kWorkers; ++i) {
    const auto prefix = "parallel.worker." + std::to_string(i);
    EXPECT_TRUE(registry.contains(prefix + ".items")) << prefix;
    EXPECT_TRUE(registry.contains(prefix + ".peak_queue")) << prefix;
  }
  EXPECT_EQ(registry.timing("pipeline.finish").data().count, 1u);

  // Tracker merge preserved the new counters.
  EXPECT_EQ(result.tracker.probes, result.sensor.scan_probes);
}

TEST_F(ObsIntegration, PcapReaderCountsFramesAndBytes) {
  const auto path = std::filesystem::temp_directory_path() / "synscan_obs_test.pcap";
  std::vector<net::RawFrame> frames;
  for (int i = 0; i < 32; ++i) {
    frames.push_back({static_cast<net::TimeUs>(i) * 1000,
                      testing::syn_frame(net::Ipv4Address::from_octets(5, 6, 7, 8),
                                         net::Ipv4Address::from_octets(198, 51, 0, 1),
                                         80)});
  }
  pcap::write_file(path, frames);

  auto reader = pcap::Reader::open(path);
  const auto [read, status] = reader.read_all();
  std::filesystem::remove(path);

  ASSERT_EQ(status, pcap::ReadStatus::kEndOfFile);
  EXPECT_EQ(global_counter("pcap.frames"), frames.size());
  EXPECT_GT(global_counter("pcap.bytes"), 0u);
  EXPECT_EQ(global_counter("pcap.truncated"), 0u);
  EXPECT_EQ(global_counter("pcap.bad_records"), 0u);
}

TEST_F(ObsIntegration, TrackerExposesFlowTableLifecycle) {
  core::TrackerConfig config;
  config.sweep_interval = 64;
  core::Pipeline pipeline(test_telescope(), 1, config);
  testing::generate_into(pipeline, test_telescope(), small_config());
  const auto result = pipeline.finish();

  EXPECT_GT(result.tracker.peak_open_flows, 0u);
  EXPECT_GT(result.tracker.sweeps, 0u);
  // Every flow closed by inactivity ended up classified as a campaign or
  // sub-threshold, so expirations never exceed total closed flows.
  EXPECT_LE(result.tracker.expired_flows,
            result.tracker.campaigns + result.tracker.subthreshold_flows);
  // The high-water mark is bounded by the probes that could open flows.
  EXPECT_LE(result.tracker.peak_open_flows, result.tracker.probes);
}

// --- documentation consistency -------------------------------------------

// The code↔doc metric-name comparison itself lives in the project
// linter (tools/lint/synscan_lint.py, rule `metric-doc-sync`), so the
// same check guards both `ctest` and `scripts/lint.sh`. This test is a
// thin wrapper: doc/code drift fails here too.
TEST_F(ObsIntegration, DocumentedMetricNamesMatchShippedCode) {
  const auto repo = std::filesystem::path(SYNSCAN_SOURCE_DIR);
  const auto linter = repo / "tools" / "lint" / "synscan_lint.py";
  ASSERT_TRUE(std::filesystem::exists(linter)) << linter;

  const std::string command = "python3 \"" + linter.string() + "\" --repo \"" +
                              repo.string() +
                              "\" --rule metric-doc-sync --min-doc-names 20";
  EXPECT_EQ(std::system(command.c_str()), 0)
      << "metric-doc-sync lint failed; run: " << command;
}

}  // namespace
}  // namespace synscan
