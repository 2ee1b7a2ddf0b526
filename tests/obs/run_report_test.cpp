// RunReport: publishing pipeline counters into the registry, the JSON
// bytes, and ASCII rendering.
#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <sstream>

namespace synscan::obs {
namespace {

telescope::SensorCounters sample_sensor() {
  telescope::SensorCounters counters;
  counters.scan_probes = 100;
  counters.backscatter = 20;
  counters.udp = 7;
  counters.malformed = 1;
  return counters;
}

core::TrackerCounters sample_tracker() {
  core::TrackerCounters counters;
  counters.probes = 100;
  counters.campaigns = 3;
  counters.subthreshold_flows = 12;
  counters.subthreshold_packets = 50;
  counters.expired_flows = 4;
  counters.sweeps = 2;
  counters.peak_open_flows = 17;
  return counters;
}

TEST(Publish, SensorCountersLandUnderCanonicalNames) {
  MetricsRegistry registry;
  publish(registry, sample_sensor());
  EXPECT_EQ(registry.counter("sensor.scan_probes").value(), 100u);
  EXPECT_EQ(registry.counter("sensor.backscatter").value(), 20u);
  EXPECT_EQ(registry.counter("sensor.udp").value(), 7u);
  EXPECT_EQ(registry.counter("sensor.malformed").value(), 1u);
  EXPECT_EQ(registry.counter("sensor.not_monitored").value(), 0u);
}

TEST(Publish, IsAdditiveAcrossWindows) {
  MetricsRegistry registry;
  publish(registry, sample_sensor());
  publish(registry, sample_sensor());
  EXPECT_EQ(registry.counter("sensor.scan_probes").value(), 200u);
}

TEST(Publish, TrackerCountersIncludeFlowTableStats) {
  MetricsRegistry registry;
  publish(registry, sample_tracker());
  EXPECT_EQ(registry.counter("tracker.probes").value(), 100u);
  EXPECT_EQ(registry.counter("tracker.campaigns").value(), 3u);
  EXPECT_EQ(registry.counter("tracker.expired_flows").value(), 4u);
  EXPECT_EQ(registry.counter("tracker.sweeps").value(), 2u);
  EXPECT_EQ(registry.gauge("tracker.peak_open_flows").value(), 17);
}

TEST(RunReport, CaptureFoldsResultCounters) {
  MetricsRegistry registry;
  core::PipelineResult result;
  result.sensor = sample_sensor();
  result.tracker = sample_tracker();
  const auto report = RunReport::capture("unit", &result, registry);
  EXPECT_EQ(report.label, "unit");
  bool found = false;
  for (const auto& [name, value] : report.metrics.counters) {
    if (name == "sensor.scan_probes") {
      EXPECT_EQ(value, 100u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

RunReport sample_report() {
  MetricsRegistry registry;
  publish(registry, sample_sensor());
  publish(registry, sample_tracker());
  registry.gauge("parallel.workers").store(4);
  registry.timing("analyze.ingest").record(1234, 1100);
  auto& histogram = registry.histogram("parallel.batch_items");
  for (const std::uint64_t sample : {1u, 16u, 256u, 256u, 300u}) {
    histogram.observe(sample);
  }
  return RunReport::capture("round-trip \"label\"", nullptr, registry);
}

// Reports are written, never read back, so the writer's bytes are the
// format: both cases pin the whole output.
TEST(RunReport, JsonRoundTripIsExact) {
  EXPECT_EQ(sample_report().to_json(),
            R"({"schema":"synscan.run_report/1","label":"round-trip \"label\"",)"
            R"("counters":{"sensor.backscatter":20,"sensor.icmp":0,)"
            R"("sensor.ingress_blocked":0,"sensor.malformed":1,"sensor.not_monitored":0,)"
            R"("sensor.other_tcp":0,"sensor.scan_probes":100,"sensor.spoofed_source":0,)"
            R"("sensor.udp":7,"sensor.xmas_or_null":0,"tracker.campaigns":3,)"
            R"("tracker.dest_promotions":0,"tracker.expired_flows":4,)"
            R"("tracker.flow_reuses":0,"tracker.port_promotions":0,"tracker.probes":100,)"
            R"("tracker.subthreshold_flows":12,"tracker.subthreshold_packets":50,)"
            R"("tracker.sweeps":2,"tracker.table_rehashes":0},)"
            R"("gauges":{"parallel.workers":4,"tracker.peak_open_flows":17},)"
            R"("timings":{"analyze.ingest":{"count":1,"wall_us":1234,"cpu_us":1100,)"
            R"("max_wall_us":1234}},)"
            R"("histograms":{"parallel.batch_items":{"count":5,"sum":829,"min":1,)"
            R"("max":300,"buckets":{"1":1,"5":1,"9":3}}}})");
}

TEST(RunReport, JsonContainsSchemaAndSections) {
  const auto json = sample_report().to_json();
  EXPECT_NE(json.find("\"schema\":\"synscan.run_report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"timings\":{"), std::string::npos);
  EXPECT_NE(json.find("\"sensor.scan_probes\":100"), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\":1234"), std::string::npos);
}

TEST(RunReport, EmptyRegistrySerializesAndParses) {
  MetricsRegistry registry;
  EXPECT_EQ(RunReport::capture("empty", nullptr, registry).to_json(),
            R"({"schema":"synscan.run_report/1","label":"empty","counters":{},)"
            R"("gauges":{},"timings":{},"histograms":{}})");
}

TEST(RunReport, TableListsMetricsAndStages) {
  const auto table = sample_report().to_table();
  EXPECT_NE(table.find("sensor.scan_probes"), std::string::npos);
  EXPECT_NE(table.find("tracker.peak_open_flows (gauge)"), std::string::npos);
  EXPECT_NE(table.find("-- stage timings --"), std::string::npos);
  EXPECT_NE(table.find("analyze.ingest"), std::string::npos);
  EXPECT_NE(table.find("-- distributions --"), std::string::npos);
  EXPECT_NE(table.find("parallel.batch_items"), std::string::npos);
}

}  // namespace
}  // namespace synscan::obs
