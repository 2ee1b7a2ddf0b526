// Differential tests for the batch-native analytics path: every
// column-direct fast path introduced by the ProbeBatch end-to-end
// refactor — batched observers, the flat fingerprint evidence table,
// the interval-indexed registry, batch-slice sharding in the parallel
// analyzer, and the buffered JSON writer — must be bit-identical to its
// per-probe (or linear-scan) reference on a mixed capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis_geo.h"
#include "core/analysis_types.h"
#include "core/daily_series.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/port_tally.h"
#include "core/volatility.h"
#include "enrich/registry.h"
#include "fingerprint/evidence_table.h"
#include "report/json.h"
#include "simgen/generator.h"
#include "telescope/probe_batch.h"
#include "test_support.h"

namespace synscan {
namespace {

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}},
      {{23, 0}});  // telnet blocked from the start
  return telescope;
}

/// A mixed window: three tool groups across scanner pools, plus noise
/// sources and backscatter, so batches interleave sources and every
/// matcher, registry pool and observer sees real traffic.
simgen::YearConfig capture_config() {
  simgen::YearConfig config;
  config.year = 2021;
  config.window_days = 2;
  config.seed = 6060;
  config.port_table = {{80, 40}, {23, 20}, {443, 20}, {8080, 20}};
  config.noise_sources = 60;
  config.backscatter_fraction = 0.1;

  const auto add_group = [&](const char* name, simgen::WireTool tool,
                             enrich::ScannerType pool, int sources, int campaigns) {
    simgen::GroupSpec group;
    group.name = name;
    group.tool = tool;
    group.pool = pool;
    group.sources = sources;
    group.campaigns = campaigns;
    group.hits_median = 250;
    group.hits_sigma = 1.2;
    group.pps_median = 400000;
    group.pps_sigma = 1.2;
    config.groups.push_back(group);
  };
  add_group("zmap-hosting", simgen::WireTool::kZmap, enrich::ScannerType::kHosting, 5, 8);
  add_group("masscan-res", simgen::WireTool::kMasscan, enrich::ScannerType::kResidential,
            4, 6);
  add_group("mirai-res", simgen::WireTool::kMirai, enrich::ScannerType::kResidential, 6,
            6);
  return config;
}

/// The window's scan probes, already sensed, as recycled-style batches
/// (fixed row budget, cleared and refilled like the ingest path).
std::vector<telescope::ProbeBatch> probe_batches() {
  static const std::vector<telescope::ProbeBatch> batches = [] {
    constexpr std::size_t kRows = 1024;
    std::vector<telescope::ProbeBatch> out;
    telescope::Sensor sensor(test_telescope());
    telescope::ProbeBatch batch;
    simgen::TrafficGenerator generator(capture_config(), test_telescope(),
                                       enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& frame) {
      telescope::ScanProbe probe;
      if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
        batch.push_back(probe);
        if (batch.size() >= kRows) {
          out.push_back(batch);
          batch.clear();
        }
      }
    });
    if (!batch.empty()) out.push_back(batch);
    return out;
  }();
  return batches;
}

std::vector<std::uint32_t> identity_rows(std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  for (std::uint32_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

/// Feeds every batch through `observer` using the column-direct
/// `observe_batch` overload.
void feed_batched(core::ProbeObserver& observer) {
  for (const auto& batch : probe_batches()) {
    const auto rows = identity_rows(batch.size());
    observer.observe_batch(batch, rows);
  }
}

/// Feeds every batch through `observer` row by row — the per-probe
/// reference the batched overloads are measured against.
void feed_reference(core::ProbeObserver& observer) {
  for (const auto& batch : probe_batches()) {
    for (std::size_t i = 0; i < batch.size(); ++i) observer.on_probe(batch.get(i));
  }
}

void expect_same_port_rows(const std::vector<core::PortCount>& got,
                           const std::vector<core::PortCount>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].port, want[i].port) << "row " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "row " << i;
    EXPECT_EQ(got[i].share, want[i].share) << "row " << i;
  }
}

TEST(BatchedObservers, PortTallyMatchesPerProbeReference) {
  core::PortTally batched;
  core::PortTally reference;
  feed_batched(batched);
  feed_reference(reference);

  ASSERT_GT(reference.total_packets(), 0u);
  EXPECT_EQ(batched.total_packets(), reference.total_packets());
  EXPECT_EQ(batched.total_sources(), reference.total_sources());
  expect_same_port_rows(batched.top_ports_by_packets(100),
                        reference.top_ports_by_packets(100));
  expect_same_port_rows(batched.top_ports_by_sources(100),
                        reference.top_ports_by_sources(100));
  EXPECT_EQ(batched.ports_with_at_least(2), reference.ports_with_at_least(2));
  EXPECT_EQ(batched.privileged_port_coverage(), reference.privileged_port_coverage());

  auto got_sample = batched.ports_per_source_sample();
  auto want_sample = reference.ports_per_source_sample();
  std::sort(got_sample.begin(), got_sample.end());
  std::sort(want_sample.begin(), want_sample.end());
  EXPECT_EQ(got_sample, want_sample);
}

TEST(BatchedObservers, TypeTallyMatchesPerProbeReference) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  core::TypeTally batched(registry);
  core::TypeTally reference(registry);
  feed_batched(batched);
  feed_reference(reference);

  EXPECT_EQ(batched.total_packets(), reference.total_packets());
  EXPECT_EQ(batched.total_sources(), reference.total_sources());
  for (const auto type : enrich::kAllScannerTypes) {
    EXPECT_EQ(batched.packets(type), reference.packets(type))
        << enrich::to_string(type);
    EXPECT_EQ(batched.sources(type), reference.sources(type))
        << enrich::to_string(type);
  }
  for (const auto port : reference.top_ports(10)) {
    EXPECT_EQ(batched.port_type_mix(port), reference.port_type_mix(port))
        << "port " << port;
  }
}

TEST(BatchedObservers, GeoTallyMatchesPerProbeReference) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  core::GeoTally batched(registry);
  core::GeoTally reference(registry);
  feed_batched(batched);
  feed_reference(reference);

  EXPECT_EQ(batched.total_packets(), reference.total_packets());
  const auto got = batched.top_countries(100);
  const auto want = reference.top_countries(100);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].country, want[i].country) << "row " << i;
    EXPECT_EQ(got[i].packets, want[i].packets) << "row " << i;
    EXPECT_EQ(got[i].share, want[i].share) << "row " << i;
  }
  for (const std::uint16_t port : {80, 23, 443, 8080}) {
    const auto mix_got = batched.port_country_mix(port, 20);
    const auto mix_want = reference.port_country_mix(port, 20);
    ASSERT_EQ(mix_got.size(), mix_want.size()) << "port " << port;
    for (std::size_t i = 0; i < mix_want.size(); ++i) {
      EXPECT_EQ(mix_got[i].country, mix_want[i].country) << "port " << port;
      EXPECT_EQ(mix_got[i].packets, mix_want[i].packets) << "port " << port;
    }
  }
}

TEST(BatchedObservers, DailySeriesMatchesPerProbeReference) {
  const net::TimeUs origin = probe_batches().front().timestamp_us.front();
  core::DailyPortSeries batched(origin);
  core::DailyPortSeries reference(origin);
  feed_batched(batched);
  feed_reference(reference);

  ASSERT_EQ(batched.days(), reference.days());
  EXPECT_EQ(batched.totals(), reference.totals());
  for (const std::uint16_t port : {80, 23, 443, 8080}) {
    EXPECT_EQ(batched.series(port), reference.series(port)) << "port " << port;
  }
}

TEST(BatchedObservers, VolatilityMatchesPerProbeReference) {
  const net::TimeUs origin = probe_batches().front().timestamp_us.front();
  core::VolatilityTracker batched(origin, net::kMicrosPerDay);
  core::VolatilityTracker reference(origin, net::kMicrosPerDay);
  feed_batched(batched);
  feed_reference(reference);

  const auto got = batched.result();
  const auto want = reference.result();
  EXPECT_EQ(got.netblocks, want.netblocks);
  EXPECT_EQ(got.weeks, want.weeks);
  ASSERT_EQ(got.packet_change.size(), want.packet_change.size());
  EXPECT_TRUE(std::equal(got.packet_change.sorted().begin(),
                         got.packet_change.sorted().end(),
                         want.packet_change.sorted().begin()));
  ASSERT_EQ(got.source_change.size(), want.source_change.size());
  EXPECT_TRUE(std::equal(got.source_change.sorted().begin(),
                         got.source_change.sorted().end(),
                         want.source_change.sorted().begin()));
}

TEST(EvidenceTableDifferential, MatchesMapReference) {
  fingerprint::EvidenceTable table;
  std::map<std::uint32_t, fingerprint::ToolEvidence> reference;
  for (const auto& batch : probe_batches()) {
    table.observe_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto probe = batch.get(i);
      reference[probe.source.value()].observe(probe);
    }
  }

  ASSERT_GT(reference.size(), 0u);
  ASSERT_EQ(table.sources(), reference.size());
  // sorted_entries() must reproduce the std::map's ascending-source
  // iteration (the CLI report order), entry for entry.
  const auto entries = table.sorted_entries();
  ASSERT_EQ(entries.size(), reference.size());
  std::size_t index = 0;
  for (const auto& [source, want] : reference) {
    const auto& [got_source, got] = entries[index++];
    ASSERT_EQ(got_source, source);
    EXPECT_EQ(got->probes(), want.probes());
    EXPECT_EQ(got->verdict(), want.verdict());
    for (const auto tool : fingerprint::kAllTools) {
      EXPECT_EQ(got->matches(tool), want.matches(tool))
          << net::Ipv4Address(source).to_string() << " "
          << fingerprint::to_string(tool);
    }
    EXPECT_EQ(table.find(source), got);
  }
  // A source the capture cannot contain (multicast space) maps to null.
  ASSERT_EQ(reference.count(0xeeeeeeeeu), 0u);
  EXPECT_EQ(table.find(0xeeeeeeeeu), nullptr);
}

TEST(IntervalRegistryDifferential, MatchesLinearLongestPrefixScan) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto records = registry.records();
  ASSERT_GT(records.size(), 0u);

  // Reference: linear scan keeping the longest matching prefix (first
  // record wins ties, mirroring the old per-length emplace semantics).
  const auto linear = [&](net::Ipv4Address addr) -> const enrich::PrefixRecord* {
    const enrich::PrefixRecord* best = nullptr;
    for (const auto& record : records) {
      if (!record.prefix.contains(addr)) continue;
      if (best == nullptr || record.prefix.length() > best->prefix.length()) {
        best = &record;
      }
    }
    return best;
  };

  std::vector<std::uint32_t> probes;
  for (const auto& record : records) {
    const auto base = record.prefix.base().value();
    const auto last =
        base + static_cast<std::uint32_t>(record.prefix.size() - 1);
    probes.push_back(base);
    probes.push_back(last);
    if (base > 0) probes.push_back(base - 1);
    if (last < 0xffffffffu) probes.push_back(last + 1);
    probes.push_back(base + static_cast<std::uint32_t>(record.prefix.size() / 2));
  }
  // A deterministic sweep of the whole space (prime stride).
  for (std::uint64_t addr = 0; addr <= 0xffffffffull; addr += 16777259) {
    probes.push_back(static_cast<std::uint32_t>(addr));
  }

  for (const auto value : probes) {
    const net::Ipv4Address addr(value);
    EXPECT_EQ(registry.lookup(addr), linear(addr)) << addr.to_string();
  }
}

/// The `analyze --json` bytes of a result: counters line, then the
/// campaign JSONL.
std::string report_json(const core::PipelineResult& result) {
  std::ostringstream out;
  report::write_counters_json(out, result);
  out << '\n';
  report::write_campaigns_jsonl(out, result.campaigns);
  return out.str();
}

/// JSON reports from the batched pipeline must be byte-identical to the
/// per-probe reference: same campaigns, same order, same formatting.
TEST(BatchedPipelineDifferential, SerialJsonMatchesPerProbeReference) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();

  core::Pipeline batched(test_telescope());
  core::PortTally batched_ports;
  core::TypeTally batched_types(registry);
  core::GeoTally batched_geo(registry);
  batched.add_observer(batched_ports);
  batched.add_observer(batched_types);
  batched.add_observer(batched_geo);

  core::Pipeline reference(test_telescope());
  core::PortTally reference_ports;
  core::TypeTally reference_types(registry);
  core::GeoTally reference_geo(registry);
  reference.add_observer(reference_ports);
  reference.add_observer(reference_types);
  reference.add_observer(reference_geo);

  for (const auto& batch : probe_batches()) {
    batched.feed_probes(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) reference.feed_probe(batch.get(i));
  }
  const auto batched_result = batched.finish();
  const auto reference_result = reference.finish();
  ASSERT_GT(reference_result.campaigns.size(), 0u);

  EXPECT_EQ(report_json(batched_result), report_json(reference_result));
  EXPECT_EQ(batched_ports.total_packets(), reference_ports.total_packets());
  EXPECT_EQ(batched_types.total_sources(), reference_types.total_sources());
  EXPECT_EQ(batched_geo.total_packets(), reference_geo.total_packets());
}

/// Batch-slice sharding: the parallel analyzer fed whole batches must
/// reproduce the serial batched pipeline's full JSON report — counters
/// line and campaign JSONL — byte for byte at any worker count.
TEST(BatchedPipelineDifferential, WorkerSliceShardingMatchesSerial) {
  // After the window, sixteen sources scan briefly and go quiet; one
  // more source probes once, more than the expiry later. Serially every
  // quiet flow is judged against that last probe and counts as expired.
  // The sources spread over the workers, so most quiet flows sit on a
  // worker that never sees the last probe — each worker must still judge
  // against the stream's end, not its own last timestamp.
  auto batches = probe_batches();
  const net::TimeUs quiet_from =
      batches.back().timestamp_us.back() + net::kMicrosPerSecond;
  telescope::ProbeBatch tail;
  for (std::uint8_t source = 0; source < 16; ++source) {
    for (std::uint32_t probe = 0; probe < 3; ++probe) {
      tail.push_back(testing::ProbeBuilder()
                         .from(net::Ipv4Address::from_octets(203, 0, 113, source))
                         .to(net::Ipv4Address(0xc6330000u + probe))
                         .at(quiet_from + probe));
    }
  }
  tail.push_back(testing::ProbeBuilder()
                     .from(net::Ipv4Address::from_octets(203, 0, 113, 200))
                     .at(quiet_from + 2 * net::kMicrosPerHour));
  batches.push_back(tail);

  core::Pipeline serial(test_telescope());
  for (const auto& batch : batches) serial.feed_probes(batch);
  const auto serial_result = serial.finish();
  ASSERT_GT(serial_result.campaigns.size(), 0u);
  ASSERT_GE(serial_result.tracker.expired_flows, 16u);
  const auto serial_json = report_json(serial_result);

  for (const std::size_t workers : {2u, 3u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    core::ParallelAnalyzer analyzer(test_telescope(), workers);
    for (const auto& batch : batches) analyzer.feed_probes(batch);
    const auto result = analyzer.finish();

    EXPECT_EQ(result.tracker.probes, serial_result.tracker.probes);
    EXPECT_EQ(result.tracker.expired_flows, serial_result.tracker.expired_flows);
    EXPECT_EQ(report_json(result), serial_json);
  }
}

}  // namespace
}  // namespace synscan
