// Differential tests for the batch-native analytics path: every
// column-direct fast path introduced by the ProbeBatch end-to-end
// refactor — batched observers, the port tally folded from the
// tracker's flows, the interval-indexed registry, batch-slice sharding
// in the parallel analyzer, and the JSON report — must be bit-identical
// to its per-probe (or linear-scan) reference on a mixed capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis_geo.h"
#include "core/analysis_types.h"
#include "core/daily_series.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/port_tally.h"
#include "core/reference_tallies.h"
#include "core/rollup.h"
#include "core/rollup_store.h"
#include "core/volatility.h"
#include "enrich/registry.h"
#include "pcap/pcap.h"
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
                             enrich::ScannerType pool, std::uint32_t sources,
                             std::uint32_t campaigns) {
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

/// The window's probes counted one by one through `PortTally::on_probe`:
/// the per-probe reference every folded tally is held to.
const core::PortTally& reference_tally() {
  static const core::PortTally tally = [] {
    core::PortTally reference;
    feed_reference(reference);
    return reference;
  }();
  return tally;
}

/// The tally composed from the pipeline's tracker flows over the window.
core::PortTally folded_tally() {
  core::Pipeline pipeline(test_telescope());
  for (const auto& batch : probe_batches()) pipeline.feed_probes(batch);
  return pipeline.finish().port_tally();
}

/// A shard's full tally: its residual plus its campaigns' and segments'
/// maps, each count stored once.
core::PortTally shard_tally(const core::CaptureRollup& shard) {
  core::PortTally tally = shard.residual_ports;
  for (const auto& c : shard.campaigns) tally.add(c.source.value(), c.port_packets);
  for (const auto& s : shard.segments) tally.add(s.source.value(), s.port_packets);
  return tally;
}

/// The pipeline's composed tally — its workers' sub-threshold flows plus
/// every campaign — equals the per-probe tally source by source and port
/// by port at any worker count. With several workers the residuals are
/// built on the worker threads and merged after the join.
TEST(FoldedTally, MatchesPerProbeReferenceAtEveryWorkerCount) {
  ASSERT_GT(reference_tally().total_packets(), 0u);
  for (const std::size_t workers : {1u, 2u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    core::Pipeline pipeline(test_telescope(), workers);
    for (const auto& batch : probe_batches()) pipeline.feed_probes(batch);
    const auto result = pipeline.finish();
    // Both ways a flow closes feed the tally.
    ASSERT_GT(result.campaigns.size(), 0u);
    ASSERT_GT(result.tracker.subthreshold_flows, 0u);
    EXPECT_EQ(result.residual_ports.total_packets(), result.tracker.subthreshold_packets);
    testing::expect_same_port_tally(result.port_tally(), reference_tally());
  }
}

/// In carry mode the flows at the window's edges leave as boundary
/// segments instead; the pipeline's composed tally plus the segments'
/// maps is the per-probe tally.
TEST(FoldedTally, CarryModeTallyPlusSegmentsMatchesPerProbeReference) {
  core::TrackerConfig config;
  config.carry_boundary_flows = true;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    core::Pipeline pipeline(test_telescope(), workers, config);
    for (const auto& batch : probe_batches()) pipeline.feed_probes(batch);
    const auto result = pipeline.finish();
    const auto segments = pipeline.take_carried_segments();
    ASSERT_FALSE(segments.empty());
    auto tally = result.port_tally();
    for (const auto& segment : segments) {
      tally.add(segment.source.value(), segment.port_packets);
    }
    testing::expect_same_port_tally(tally, reference_tally());
  }
}

/// `analyze_shard`'s tally (its residual plus its campaigns' and
/// segments' maps) equals the per-probe tally of the same capture,
/// before and after a `.spr` round trip.
TEST(FoldedTally, ShardTallyMatchesPerProbeReferenceAfterSprRoundTrip) {
  namespace fs = std::filesystem;
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto dir = fs::temp_directory_path() / "synscan_folded_tally_shard";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto capture = dir / "window.pcap";
  {
    auto writer = pcap::Writer::create(capture);
    simgen::TrafficGenerator generator(capture_config(), test_telescope(), registry);
    (void)generator.run([&](const net::RawFrame& frame) { writer.write(frame); });
    writer.flush();
  }
  core::IngestOptions ingest;
  ingest.use_cache = false;
  core::PortTally reference;
  (void)core::ingest_capture(capture, test_telescope(), ingest,
                             [&](const telescope::ProbeBatch& batch) {
                               for (std::size_t i = 0; i < batch.size(); ++i) {
                                 reference.on_probe(batch.get(i));
                               }
                             });
  ASSERT_GT(reference.total_packets(), 0u);

  const auto shard =
      core::analyze_shard(capture, test_telescope(), registry, core::TrackerConfig{}, ingest);
  ASSERT_FALSE(shard.segments.empty());
  testing::expect_same_port_tally(shard_tally(shard), reference);

  const auto identity = core::cache_identity(capture);
  ASSERT_TRUE(identity.has_value());
  const auto fingerprint =
      core::analysis_fingerprint(core::TrackerConfig{}, test_telescope().monitored_count());
  const auto store = core::rollup_path_for(capture);
  ASSERT_TRUE(core::save_rollup(store, shard, *identity, fingerprint));
  const auto loaded = core::load_rollup(store, registry, *identity, fingerprint);
  ASSERT_TRUE(loaded.has_value());
  testing::expect_same_port_tally(shard_tally(*loaded), reference);
  fs::remove_all(dir);
}

/// The scanner-type view of the pipeline's folded tally answers every
/// question as the per-probe reference type tally does.
TEST(BatchedObservers, TypeTallyMatchesPerProbeReference) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto folded = folded_tally();
  testing::ReferenceTypeTally reference(registry);
  feed_reference(reference);

  ASSERT_GT(folded.total_packets(), 0u);
  testing::expect_type_view_matches(core::TypeView(folded, registry), reference);
}

/// The country view of the pipeline's folded tally answers every
/// question as the per-probe reference country tally does.
TEST(BatchedObservers, GeoTallyMatchesPerProbeReference) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto folded = folded_tally();
  testing::ReferenceGeoTally reference(registry);
  feed_reference(reference);

  ASSERT_GT(folded.total_packets(), 0u);
  testing::expect_geo_view_matches(core::GeoView(folded, registry), reference, registry);
}

TEST(BatchedObservers, DailySeriesMatchesPerProbeReference) {
  const net::TimeUs origin = probe_batches().front().timestamp_us.front();
  core::DailyPortSeries batched(origin);
  core::DailyPortSeries reference(origin);
  feed_batched(batched);
  feed_reference(reference);

  ASSERT_EQ(batched.days(), reference.days());
  EXPECT_EQ(batched.totals(), reference.totals());
  for (const std::uint16_t port :
       {std::uint16_t{80}, std::uint16_t{23}, std::uint16_t{443}, std::uint16_t{8080}}) {
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
  std::string out;
  report::append_analyze_json(out, result);
  return out;
}

/// JSON reports from the batched pipeline must be byte-identical to the
/// per-probe reference: same campaigns, same order, same formatting.
TEST(BatchedPipelineDifferential, SerialJsonMatchesPerProbeReference) {
  core::Pipeline batched(test_telescope());

  core::Pipeline reference(test_telescope());
  core::PortTally reference_ports;
  reference.add_observer(reference_ports);

  for (const auto& batch : probe_batches()) {
    batched.feed_probes(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) reference.feed_probe(batch.get(i));
  }
  const auto batched_result = batched.finish();
  const auto reference_result = reference.finish();
  ASSERT_GT(reference_result.campaigns.size(), 0u);

  EXPECT_EQ(report_json(batched_result), report_json(reference_result));
  testing::expect_same_port_tally(batched_result.port_tally(), reference_ports);
  testing::expect_same_port_tally(reference_result.port_tally(), reference_ports);
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
    core::Pipeline analyzer(test_telescope(), workers);
    for (const auto& batch : batches) analyzer.feed_probes(batch);
    const auto result = analyzer.finish();

    EXPECT_EQ(result.tracker.probes, serial_result.tracker.probes);
    EXPECT_EQ(result.tracker.expired_flows, serial_result.tracker.expired_flows);
    EXPECT_EQ(report_json(result), serial_json);
  }
}

}  // namespace
}  // namespace synscan
