// Unit tests for the mergeable-rollup layer (core/rollup.h): aggregate
// merge() contracts, fingerprint-evidence splicing, and the
// RollupMerger boundary-join semantics. The whole-subsystem invariant —
// merged shards byte-identical to whole-capture analysis — is pinned by
// tests/integration/rollup_differential_test.cpp.
#include "core/rollup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/daily_series.h"
#include "core/port_tally.h"
#include "core/reference_tallies.h"
#include "core/volatility.h"
#include "fingerprint/classifier.h"
#include "net/packet.h"
#include "pcap/pcap.h"
#include "test_support.h"

namespace synscan::core {
namespace {

namespace fs = std::filesystem;

using synscan::testing::ProbeBuilder;

net::Ipv4Address src(std::uint32_t i) { return net::Ipv4Address(0x05000000u + i); }
net::Ipv4Address dst(std::uint32_t i) { return net::Ipv4Address(0xc6330000u + i); }

/// A deterministic probe stream that touches several sources, ports and
/// destinations; `n` controls the length.
std::vector<telescope::ScanProbe> sample_probes(std::size_t n) {
  std::vector<telescope::ScanProbe> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    probes.push_back(ProbeBuilder()
                         .at(static_cast<net::TimeUs>(1'000'000 + i * 40))
                         .from(src(static_cast<std::uint32_t>(i % 7)))
                         .to(dst(static_cast<std::uint32_t>(i % 31)))
                         .port(static_cast<std::uint16_t>(i % 3 == 0 ? 443 : 80)));
  }
  return probes;
}

// ---- tally merges ---------------------------------------------------

TEST(RollupMerge, PortTallyMergeEqualsWhole) {
  const auto probes = sample_probes(200);
  PortTally whole;
  PortTally left;
  PortTally right;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    whole.on_probe(probes[i]);
    (i < 90 ? left : right).on_probe(probes[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.total_packets(), whole.total_packets());
  EXPECT_EQ(left.total_sources(), whole.total_sources());
  EXPECT_EQ(left.packets_on_port(80), whole.packets_on_port(80));
  EXPECT_EQ(left.packets_on_port(443), whole.packets_on_port(443));
  EXPECT_EQ(left.sources_on_port(80), whole.sources_on_port(80));
  auto merged_sample = left.ports_per_source_sample();
  auto whole_sample = whole.ports_per_source_sample();
  std::sort(merged_sample.begin(), merged_sample.end());
  std::sort(whole_sample.begin(), whole_sample.end());
  EXPECT_EQ(merged_sample, whole_sample);
}

TEST(RollupMerge, PortTallyMergeWithEmptyIsIdentity) {
  const auto probes = sample_probes(50);
  PortTally tally;
  for (const auto& probe : probes) tally.on_probe(probe);
  const auto packets = tally.total_packets();
  const auto sources = tally.total_sources();

  tally.merge(PortTally{});  // empty right-hand side
  EXPECT_EQ(tally.total_packets(), packets);
  EXPECT_EQ(tally.total_sources(), sources);

  PortTally fresh;
  fresh.merge(tally);  // empty left-hand side
  EXPECT_EQ(fresh.total_packets(), packets);
  EXPECT_EQ(fresh.total_sources(), sources);
}

/// Probes from sources spread over the registry's records (every
/// scanner type, many countries) and one unallocated source, in
/// per-source bursts over a few ports.
std::vector<telescope::ScanProbe> attributed_probes(std::size_t n) {
  const auto records = enrich::InternetRegistry::synthetic_default().records();
  const std::uint16_t ports[] = {22, 80, 443, 8545, 3389};
  std::vector<telescope::ScanProbe> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto burst = i / 4;
    const auto source = burst % 9 == 8
                            ? src(0)
                            : records[(burst * 7) % records.size()].prefix.at(burst % 5);
    probes.push_back(ProbeBuilder()
                         .at(static_cast<net::TimeUs>(1'000'000 + i * 40))
                         .from(source)
                         .to(dst(static_cast<std::uint32_t>(i % 31)))
                         .port(ports[(i + burst) % std::size(ports)]));
  }
  return probes;
}

/// Folds three shard tallies of `probes` (cut at uneven points) into
/// the first.
PortTally merged_thirds(const std::vector<telescope::ScanProbe>& probes) {
  std::array<PortTally, 3> shards;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    shards[i * 6 < probes.size() ? 0 : i * 3 < probes.size() * 2 ? 1 : 2].on_probe(probes[i]);
  }
  shards[0].merge(shards[1]);
  shards[0].merge(shards[2]);
  return std::move(shards[0]);
}

TEST(RollupMerge, TypeTallyMergeEqualsWhole) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto probes = attributed_probes(600);
  testing::ReferenceTypeTally whole(registry);
  for (const auto& probe : probes) whole.on_probe(probe);
  testing::expect_type_view_matches(TypeView(merged_thirds(probes), registry), whole);
}

TEST(RollupMerge, GeoTallyMergeEqualsWhole) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto probes = attributed_probes(600);
  testing::ReferenceGeoTally whole(registry);
  for (const auto& probe : probes) whole.on_probe(probe);
  ASSERT_GT(whole.packets.size(), 3u);
  testing::expect_geo_view_matches(GeoView(merged_thirds(probes), registry), whole, registry);
}

TEST(RollupMerge, VolatilityMergeEqualsWhole) {
  const net::TimeUs origin = 1'000'000;
  VolatilityTracker whole(origin, net::kMicrosPerDay);
  VolatilityTracker left(origin, net::kMicrosPerDay);
  VolatilityTracker right(origin, net::kMicrosPerDay);
  for (int i = 0; i < 300; ++i) {
    const auto probe = ProbeBuilder()
                           .at(origin + static_cast<net::TimeUs>(i) *
                                            (net::kMicrosPerDay / 50))
                           .from(src(static_cast<std::uint32_t>(i % 5) << 16))
                           .to(dst(static_cast<std::uint32_t>(i)));
    whole.on_probe(probe);
    (i < 140 ? left : right).on_probe(probe);
  }
  left.merge(right);
  const auto merged = left.result();
  const auto expected = whole.result();
  EXPECT_EQ(merged.netblocks, expected.netblocks);
  EXPECT_EQ(merged.weeks, expected.weeks);
  ASSERT_EQ(merged.packet_change.size(), expected.packet_change.size());
  const auto merged_sorted = merged.packet_change.sorted();
  const auto expected_sorted = expected.packet_change.sorted();
  for (std::size_t i = 0; i < expected_sorted.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged_sorted[i], expected_sorted[i]);
  }
}

TEST(RollupMerge, VolatilityOriginMismatchThrows) {
  VolatilityTracker a(0);
  const VolatilityTracker b(net::kMicrosPerDay);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  VolatilityTracker c(0, net::kMicrosPerDay);
  const VolatilityTracker d(0, net::kMicrosPerWeek);
  EXPECT_THROW(c.merge(d), std::invalid_argument);
}

TEST(RollupMerge, DailySeriesMergeEqualsWhole) {
  const net::TimeUs origin = 0;
  DailyPortSeries whole(origin);
  DailyPortSeries left(origin);
  DailyPortSeries right(origin);
  for (int i = 0; i < 240; ++i) {
    const auto probe = ProbeBuilder()
                           .at(static_cast<net::TimeUs>(i) * (net::kMicrosPerDay / 40))
                           .from(src(1))
                           .to(dst(static_cast<std::uint32_t>(i)))
                           .port(static_cast<std::uint16_t>(i % 2 == 0 ? 80 : 22));
    whole.on_probe(probe);
    (i % 3 == 0 ? left : right).on_probe(probe);
  }
  left.merge(right);
  EXPECT_EQ(left.days(), whole.days());
  EXPECT_EQ(left.series(80), whole.series(80));
  EXPECT_EQ(left.series(22), whole.series(22));
  EXPECT_EQ(left.totals(), whole.totals());
}

TEST(RollupMerge, DailySeriesOriginMismatchThrows) {
  DailyPortSeries a(0);
  const DailyPortSeries b(net::kMicrosPerDay);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---- fingerprint evidence splicing ----------------------------------

std::vector<telescope::ScanProbe> zmap_like_run(std::size_t n) {
  std::vector<telescope::ScanProbe> probes;
  probes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto builder = ProbeBuilder()
                       .at(static_cast<net::TimeUs>(1'000'000 + i * 100))
                       .from(src(9))
                       .to(dst(static_cast<std::uint32_t>(i)))
                       .ipid(54321);  // the ZMap single-packet fingerprint
    probes.push_back(builder);
  }
  return probes;
}

TEST(RollupMerge, EvidenceAppendMatchesContinuousObservation) {
  const auto probes = zmap_like_run(24);
  const fingerprint::ClassifierConfig config;

  fingerprint::ToolEvidence continuous(config);
  for (const auto& probe : probes) continuous.observe(probe);

  for (const std::size_t split : {std::size_t{1}, std::size_t{11}, probes.size() - 1}) {
    fingerprint::ToolEvidence head(config);
    fingerprint::ToolEvidence tail(config);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      (i < split ? head : tail).observe(probes[i]);
    }
    head.append(tail);
    EXPECT_EQ(head.probes(), continuous.probes()) << "split " << split;
    EXPECT_EQ(head.verdict(), continuous.verdict()) << "split " << split;
    for (const auto tool : fingerprint::kAllTools) {
      EXPECT_EQ(head.matches(tool), continuous.matches(tool))
          << "split " << split << " tool " << to_string(tool);
    }
  }
}

TEST(RollupMerge, EvidenceStateRoundTripContinuesExactly) {
  const auto probes = zmap_like_run(16);
  const fingerprint::ClassifierConfig config;

  fingerprint::ToolEvidence continuous(config);
  fingerprint::ToolEvidence original(config);
  for (std::size_t i = 0; i < 10; ++i) {
    continuous.observe(probes[i]);
    original.observe(probes[i]);
  }
  // Freeze, thaw (the `.spr` path), then keep observing on the thawed copy.
  auto thawed = fingerprint::ToolEvidence::from_state(config, original.state());
  for (std::size_t i = 10; i < probes.size(); ++i) {
    continuous.observe(probes[i]);
    thawed.observe(probes[i]);
  }
  EXPECT_EQ(thawed.probes(), continuous.probes());
  EXPECT_EQ(thawed.verdict(), continuous.verdict());
  for (const auto tool : fingerprint::kAllTools) {
    EXPECT_EQ(thawed.matches(tool), continuous.matches(tool));
  }
}

TEST(RollupMerge, EmptyEvidenceStateRoundTrip) {
  const fingerprint::ClassifierConfig config;
  const fingerprint::ToolEvidence empty(config);
  const auto thawed = fingerprint::ToolEvidence::from_state(config, empty.state());
  EXPECT_EQ(thawed.probes(), 0u);
  EXPECT_EQ(thawed.verdict(), empty.verdict());
}

// ---- RollupMerger contracts -----------------------------------------

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}},
      {{23, 0}});
  return telescope;
}

TEST(RollupMerger, AddAfterFinishThrows) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  RollupMerger merger(test_telescope(), registry, TrackerConfig{});
  (void)merger.finish();
  EXPECT_THROW(merger.add(CaptureRollup{}), std::logic_error);
}

TEST(RollupMerger, EmptyMergeIsEmptyAnalysis) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  RollupMerger merger(test_telescope(), registry, TrackerConfig{});
  const auto analysis = merger.finish();
  EXPECT_EQ(analysis.frames, 0u);
  EXPECT_FALSE(analysis.from_cache);
  EXPECT_TRUE(analysis.result.campaigns.empty());
  EXPECT_EQ(analysis.result.sensor.scan_probes, 0u);
}

// ---- boundary joins through analyze_shard ---------------------------

/// Writes `count` SYN probes from `source`, one per distinct
/// destination, starting at `start` with `step` between packets.
void write_burst(pcap::Writer& writer, net::Ipv4Address source, std::uint32_t dest_base,
                 std::uint32_t count, net::TimeUs start, net::TimeUs step) {
  net::RawFrame frame;
  for (std::uint32_t i = 0; i < count; ++i) {
    net::TcpFrameSpec tcp;
    tcp.src_ip = source;
    tcp.dst_ip = dst(dest_base + i);
    tcp.src_port = 44444;
    tcp.dst_port = 80;
    tcp.sequence = 1000 + i;
    frame.timestamp_us = start + static_cast<net::TimeUs>(i) * step;
    frame.bytes = net::build_tcp_frame(tcp);
    writer.write(frame);
  }
}

/// Unique temp dir per test so parallel ctest runs cannot collide.
struct ShardFixture {
  fs::path dir;
  fs::path first;
  fs::path second;

  explicit ShardFixture(const char* name) {
    dir = fs::temp_directory_path() / (std::string("synscan_rollup_unit_") + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    first = dir / "a.pcap";
    second = dir / "b.pcap";
  }
  ~ShardFixture() { fs::remove_all(dir); }
};

AnalyzedCapture merge_two(const fs::path& a, const fs::path& b) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  IngestOptions ingest;
  ingest.use_cache = false;
  const TrackerConfig config;
  RollupMerger merger(test_telescope(), registry, config);
  merger.add(analyze_shard(a, test_telescope(), registry, config, ingest));
  merger.add(analyze_shard(b, test_telescope(), registry, config, ingest));
  return merger.finish();
}

TEST(RollupMerger, FlowSpanningShardsJoinsIntoOneCampaign) {
  const ShardFixture fixture("join");
  {
    auto writer = pcap::Writer::create(fixture.first);
    write_burst(writer, src(1), 0, 80, 1'000'000, 10'000);
    writer.flush();
  }
  {
    // Continues 2s later — far inside the 1h expiry.
    auto writer = pcap::Writer::create(fixture.second);
    write_burst(writer, src(1), 80, 80, 3'000'000, 10'000);
    writer.flush();
  }
  const auto merged = merge_two(fixture.first, fixture.second);
  ASSERT_EQ(merged.result.campaigns.size(), 1u);
  EXPECT_EQ(merged.result.campaigns[0].source, src(1));
  EXPECT_EQ(merged.result.campaigns[0].packets, 160u);
  EXPECT_EQ(merged.result.campaigns[0].distinct_destinations, 160u);
  EXPECT_EQ(merged.result.campaigns[0].first_seen_us, 1'000'000);
}

TEST(RollupMerger, ExpiryGapAcrossShardsSplitsCampaigns) {
  const ShardFixture fixture("gap");
  {
    auto writer = pcap::Writer::create(fixture.first);
    write_burst(writer, src(1), 0, 120, 1'000'000, 10'000);
    writer.flush();
  }
  {
    // Resumes more than the 1h expiry after the first burst ended.
    auto writer = pcap::Writer::create(fixture.second);
    write_burst(writer, src(1), 200, 120, 2 * net::kMicrosPerHour, 10'000);
    writer.flush();
  }
  const auto merged = merge_two(fixture.first, fixture.second);
  ASSERT_EQ(merged.result.campaigns.size(), 2u);
  EXPECT_EQ(merged.result.campaigns[0].packets, 120u);
  EXPECT_EQ(merged.result.campaigns[1].packets, 120u);
  // The first flow was followed by same-source traffic after the gap, so
  // it counts as expired, like the whole-capture tracker would have it.
  EXPECT_EQ(merged.result.tracker.expired_flows, 1u);
}

}  // namespace
}  // namespace synscan::core
