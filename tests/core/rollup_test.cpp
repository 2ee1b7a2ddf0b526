// Unit tests for the mergeable-rollup layer (core/rollup.h): the
// PortTally merge contract, fingerprint-evidence splicing, and the
// RollupMerger boundary-join semantics. The whole-subsystem invariant —
// merged shards byte-identical to whole-capture analysis — is pinned by
// tests/integration/rollup_differential_test.cpp.
#include "core/rollup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/port_tally.h"
#include "core/reference_tallies.h"
#include "core/rollup_store.h"
#include "core/shard.h"
#include "fingerprint/classifier.h"
#include "net/packet.h"
#include "pcap/pcap.h"
#include "report/json.h"
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

/// Expects the same sources in the same insertion order, each with the
/// same rows, and the same packet total.
void expect_same_tally(const PortTally& actual, const PortTally& expected) {
  EXPECT_EQ(actual.total_packets(), expected.total_packets());
  ASSERT_EQ(actual.total_sources(), expected.total_sources());
  std::vector<PortPacketMap::value_type> actual_rows;
  std::vector<PortPacketMap::value_type> expected_rows;
  auto other = expected.per_source().begin();
  for (const auto& [source, ports] : actual.per_source()) {
    EXPECT_EQ(source, other->first);
    ports.sorted_rows(actual_rows);
    other->second.sorted_rows(expected_rows);
    EXPECT_EQ(actual_rows, expected_rows) << source;
    ++other;
  }
}

TEST(RollupMerge, PortTallyMergeMovesOrCopiesWholeMaps) {
  // The right-hand tally holds a source the left has not seen (it moves
  // in whole), and one the left already holds, with shared and new
  // ports past the inline capacity (its map is sized once and summed).
  std::vector<telescope::ScanProbe> left_probes;
  std::vector<telescope::ScanProbe> right_probes;
  const auto probe = [](std::uint32_t source, std::uint16_t port,
                        std::size_t i) -> telescope::ScanProbe {
    return ProbeBuilder()
        .at(static_cast<net::TimeUs>(1'000'000 + i * 40))
        .from(src(source))
        .to(dst(static_cast<std::uint32_t>(i % 31)))
        .port(port);
  };
  for (std::uint16_t p = 0; p < 12; ++p) {
    left_probes.push_back(probe(1, static_cast<std::uint16_t>(1000 + p), p));
    left_probes.push_back(probe(2, 22, p));
  }
  for (std::uint16_t p = 0; p < 20; ++p) {
    right_probes.push_back(probe(3, static_cast<std::uint16_t>(60000 - p), p));
    right_probes.push_back(probe(1, static_cast<std::uint16_t>(1006 + p), p));
  }
  PortTally reference;
  for (const auto* half : {&left_probes, &right_probes}) {
    for (const auto& each : *half) reference.on_probe(each);
  }
  const auto tally_of = [](const std::vector<telescope::ScanProbe>& probes) {
    PortTally tally;
    for (const auto& each : probes) tally.on_probe(each);
    return tally;
  };

  {
    SCOPED_TRACE("copied");
    auto merged = tally_of(left_probes);
    const auto right = tally_of(right_probes);
    merged.merge(right);
    expect_same_tally(merged, reference);
    expect_same_tally(right, tally_of(right_probes));  // the copy left it whole
  }
  {
    SCOPED_TRACE("moved");
    auto merged = tally_of(left_probes);
    merged.merge(tally_of(right_probes));
    expect_same_tally(merged, reference);
  }
  for (const bool move : {false, true}) {
    SCOPED_TRACE(move ? "moved into and out of an empty tally"
                      : "copied into and out of an empty tally");
    PortTally merged;
    auto whole = tally_of(left_probes);
    whole.merge(tally_of(right_probes));
    PortTally empty;
    if (move) {
      merged.merge(std::move(whole));
      merged.merge(std::move(empty));
    } else {
      merged.merge(whole);
      merged.merge(empty);
    }
    expect_same_tally(merged, reference);
  }
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

  fingerprint::ToolEvidence continuous;
  for (const auto& probe : probes) continuous.observe(probe);

  for (const std::size_t split : {std::size_t{1}, std::size_t{11}, probes.size() - 1}) {
    fingerprint::ToolEvidence head;
    fingerprint::ToolEvidence tail;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      (i < split ? head : tail).observe(probes[i]);
    }
    head.append(tail);
    EXPECT_EQ(head.probes, continuous.probes) << "split " << split;
    EXPECT_EQ(head.verdict(), continuous.verdict()) << "split " << split;
    for (const auto tool : fingerprint::kAllTools) {
      EXPECT_EQ(head.matches(tool), continuous.matches(tool))
          << "split " << split << " tool " << to_string(tool);
    }
  }
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

// ---- boundary horizons ----------------------------------------------
//
// A shard exports a head only when it starts within `expiry` of the
// shard's first probe, and a tail only when it was last seen within
// `expiry` of the shard's last probe (or is a head). Each case below
// sits on one edge of a horizon and must merge to the report of the
// single-pass analysis of the concatenated shards.

const net::TimeUs kExpiry = TrackerConfig{}.expiry;

/// One `write_burst` call; `source` and `dest_base` index `src`/`dst`.
struct Burst {
  std::uint32_t source = 0;
  std::uint32_t dest_base = 0;
  std::uint32_t count = 0;
  net::TimeUs start = 0;
  net::TimeUs step = 10'000;

  [[nodiscard]] net::TimeUs last() const {
    return start + static_cast<net::TimeUs>(count - 1) * step;
  }
};

/// A lone probe from its own source: pins a shard's first or last
/// probe time.
Burst marker(std::uint32_t source, net::TimeUs at) { return {source, 1000, 1, at}; }

void write(pcap::Writer& writer, const Burst& burst) {
  write_burst(writer, src(burst.source), burst.dest_base, burst.count, burst.start,
              burst.step);
}

std::string report_bytes(const AnalyzedCapture& analysis) {
  std::string out;
  report::append_counters_json(out, analysis.result);
  out.push_back('\n');
  report::append_campaigns_jsonl(out, analysis.result.campaigns);
  return out;
}

struct MergedShards {
  AnalyzedCapture merged;
  std::vector<std::vector<FlowSegment>> segments;  ///< each shard's exports
};

/// Writes each shard's bursts (in time order) as one capture and all of
/// them as one whole capture, then folds the shards' rollups and expects
/// the report of `analyze_capture(workers=1)` of the whole capture, and
/// its port tally source by source: the merged residual holds every
/// segment the merger finalized below the threshold.
MergedShards expect_merge_matches_whole(const char* name,
                                        const std::vector<std::vector<Burst>>& shards) {
  const ShardFixture fixture(name);
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto whole_path = fixture.dir / "whole.pcap";
  std::vector<fs::path> paths;
  {
    auto whole = pcap::Writer::create(whole_path);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      paths.push_back(fixture.dir / ("shard" + std::to_string(i) + ".pcap"));
      auto writer = pcap::Writer::create(paths.back());
      for (const auto& burst : shards[i]) {
        write(writer, burst);
        write(whole, burst);
      }
      writer.flush();
    }
    whole.flush();
  }

  IngestOptions ingest;
  ingest.use_cache = false;
  const TrackerConfig config;
  RollupMerger merger(test_telescope(), registry, config);
  MergedShards out{AnalyzedCapture(registry), {}};
  for (const auto& path : paths) {
    auto rollup = analyze_shard(path, test_telescope(), registry, config, ingest);
    out.segments.push_back(rollup.segments);
    merger.add(std::move(rollup));
  }
  out.merged = merger.finish();
  const auto whole = analyze_capture(whole_path, test_telescope(), registry, 1, ingest);
  EXPECT_EQ(report_bytes(out.merged), report_bytes(whole));
  testing::expect_same_port_tally(out.merged.result.port_tally(), whole.result.port_tally());
  return out;
}

std::size_t campaigns_of(const AnalyzedCapture& analysis, std::uint32_t source) {
  return static_cast<std::size_t>(
      std::count_if(analysis.result.campaigns.begin(), analysis.result.campaigns.end(),
                    [&](const Campaign& c) { return c.source == src(source); }));
}

const FlowSegment* segment_of(const std::vector<FlowSegment>& segments,
                              std::uint32_t source) {
  for (const auto& segment : segments) {
    if (segment.source == src(source)) return &segment;
  }
  return nullptr;
}

TEST(RollupHorizon, ShardExportsOnlyFlowsWithinExpiryOfItsEdges) {
  const ShardFixture fixture("edges");
  const Burst opening{1, 0, 120, 1'000'000};
  const Burst middle{2, 0, 120, opening.last() + kExpiry + 1};
  const Burst closing{3, 0, 120, middle.last() + kExpiry + 1};
  {
    auto writer = pcap::Writer::create(fixture.first);
    for (const auto& burst : {opening, middle, closing}) write(writer, burst);
    writer.flush();
  }
  IngestOptions ingest;
  ingest.use_cache = false;
  const auto rollup = analyze_shard(fixture.first, test_telescope(),
                                    enrich::InternetRegistry::synthetic_default(),
                                    TrackerConfig{}, ingest);
  EXPECT_EQ(rollup.first_probe_us, opening.start);
  EXPECT_EQ(rollup.max_timestamp_us, closing.last());
  ASSERT_EQ(rollup.segments.size(), 2u);
  // The opening flow may continue a previous shard's, so it leaves as
  // a head (and, still open at the end, a tail too).
  EXPECT_EQ(rollup.segments[0].source, src(1));
  EXPECT_TRUE(rollup.segments[0].head);
  EXPECT_TRUE(rollup.segments[0].tail);
  // The closing flow may continue into the next shard.
  EXPECT_EQ(rollup.segments[1].source, src(3));
  EXPECT_FALSE(rollup.segments[1].head);
  EXPECT_TRUE(rollup.segments[1].tail);
  // The middle flow is judged inside the shard.
  ASSERT_EQ(rollup.campaigns.size(), 1u);
  EXPECT_EQ(rollup.campaigns[0].source, src(2));
  EXPECT_EQ(rollup.tracker.expired_flows, 1u);
}

TEST(RollupHorizon, HeadExactlyExpiryAfterShardStartJoinsThePreviousTail) {
  const Burst before{1, 0, 60, 1'000'000};
  const auto start = before.last();  // the second shard starts where the first ends
  const Burst after{1, 60, 60, start + kExpiry};
  const auto run = expect_merge_matches_whole(
      "head_at_horizon", {{before}, {marker(9, start), after}});
  ASSERT_EQ(campaigns_of(run.merged, 1), 1u);
  EXPECT_EQ(run.merged.result.campaigns[0].packets, 120u);
  ASSERT_NE(segment_of(run.segments[1], 1), nullptr);
  EXPECT_TRUE(segment_of(run.segments[1], 1)->head);
}

TEST(RollupHorizon, FirstFlowPastTheHeadHorizonClosesInsideItsShard) {
  const Burst before{1, 0, 120, 1'000'000};
  const auto start = before.last();
  const Burst after{1, 120, 120, start + kExpiry + 1};
  const auto run = expect_merge_matches_whole(
      "head_past_horizon",
      {{before}, {marker(9, start), after, marker(10, after.last() + kExpiry + 1)}});
  EXPECT_EQ(campaigns_of(run.merged, 1), 2u);
  EXPECT_EQ(segment_of(run.segments[1], 1), nullptr);
  // Both of the source's flows expired, the tail by the gap and the
  // second flow at the end of the capture, and so did the first marker.
  EXPECT_EQ(run.merged.result.tracker.expired_flows, 3u);
}

TEST(RollupHorizon, TailExactlyExpiryBeforeShardEndJoinsTheNextHead) {
  // The flow starts past the first shard's head horizon, so only the
  // tail horizon can carry it across.
  const net::TimeUs start = 1'000'000;
  const Burst before{1, 0, 60, start + kExpiry + 1};
  const auto end = before.last() + kExpiry;  // the first shard's last probe
  const Burst after{1, 60, 60, end};
  const auto run = expect_merge_matches_whole(
      "tail_at_horizon", {{marker(8, start), before, marker(9, end)}, {after}});
  ASSERT_EQ(campaigns_of(run.merged, 1), 1u);
  EXPECT_EQ(run.merged.result.campaigns[0].packets, 120u);
  const auto* crossing = segment_of(run.segments[0], 1);
  ASSERT_NE(crossing, nullptr);
  EXPECT_FALSE(crossing->head);
  EXPECT_TRUE(crossing->tail);
}

TEST(RollupHorizon, TailFollowedByATailOnlySegmentIsFinalized) {
  const Burst before{1, 0, 120, 1'000'000};
  const auto start = before.last();
  const Burst after{1, 120, 120, start + kExpiry + 1};
  const auto run = expect_merge_matches_whole(
      "tail_then_tail_only", {{before}, {marker(9, start), after}});
  const auto* later = segment_of(run.segments[1], 1);
  ASSERT_NE(later, nullptr);
  EXPECT_FALSE(later->head);
  EXPECT_TRUE(later->tail);
  EXPECT_EQ(campaigns_of(run.merged, 1), 2u);
}

TEST(RollupHorizon, TailCrossesAShardShorterThanExpiry) {
  constexpr net::TimeUs kMinute = 60'000'000;
  const Burst x0{1, 0, 40, 1'000'000};
  const Burst z0{2, 0, 60, x0.last() + 10'000};
  const Burst x1{1, 40, 40, z0.last() + 20 * kMinute};  // the short shard
  const Burst x2{1, 80, 40, x1.last() + 20 * kMinute};
  const Burst z2{2, 60, 60, z0.last() + 50 * kMinute};
  ASSERT_LT(x1.last() - x1.start, kExpiry);
  ASSERT_GT(z2.start, x2.last());
  const auto run =
      expect_merge_matches_whole("short_shard", {{x0, z0}, {x1}, {x2, z2}});
  EXPECT_EQ(segment_of(run.segments[1], 2), nullptr);
  ASSERT_EQ(run.merged.result.campaigns.size(), 2u);
  EXPECT_EQ(run.merged.result.campaigns[0].packets, 120u);
  EXPECT_EQ(run.merged.result.campaigns[1].packets, 120u);
}

TEST(RollupHorizon, SourceReturnsTwoShardsAfterClosingInsideTheMiddleOne) {
  const Burst first{1, 0, 120, 1'000'000};
  const Burst middle{1, 120, 120, first.last() + kExpiry + 1};
  const auto middle_end = middle.last() + kExpiry + 1;
  const Burst last{1, 240, 120, middle_end + 1};
  const auto run = expect_merge_matches_whole(
      "returns_two_shards_later",
      {{first}, {marker(9, first.last()), middle, marker(10, middle_end)}, {last}});
  EXPECT_EQ(segment_of(run.segments[1], 1), nullptr);
  ASSERT_NE(segment_of(run.segments[2], 1), nullptr);
  EXPECT_TRUE(segment_of(run.segments[2], 1)->head);
  EXPECT_EQ(campaigns_of(run.merged, 1), 3u);
}

// ---- time order ------------------------------------------------------

TEST(RollupMerger, ShardsThatOverlapInTimeAreRefused) {
  const ShardFixture fixture("overlap");
  const auto empty = fixture.dir / "empty.pcap";
  {
    auto writer = pcap::Writer::create(fixture.first);
    write_burst(writer, src(1), 0, 80, 1'000'000, 10'000);
    writer.flush();
  }
  {
    // Starts before the first shard's last probe.
    auto writer = pcap::Writer::create(fixture.second);
    write_burst(writer, src(2), 0, 80, 1'500'000, 10'000);
    writer.flush();
  }
  pcap::Writer::create(empty).flush();

  const auto& registry = enrich::InternetRegistry::synthetic_default();
  IngestOptions ingest;
  ingest.use_cache = false;
  const TrackerConfig config;
  const auto shard = [&](const fs::path& path) {
    return analyze_shard(path, test_telescope(), registry, config, ingest);
  };
  {
    RollupMerger merger(test_telescope(), registry, config);
    merger.add(shard(fixture.first));
    merger.add(shard(empty));  // a shard without probes has no time span
    try {
      merger.add(shard(fixture.second));
      ADD_FAILURE() << "an overlapping shard was merged";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("overlap in time"), std::string::npos) << message;
      EXPECT_NE(message.find(fixture.first.string()), std::string::npos) << message;
      EXPECT_NE(message.find(fixture.second.string()), std::string::npos) << message;
    }
  }

  ShardRunOptions options;
  options.workers = 1;
  options.use_rollup_store = false;
  options.ingest = ingest;
  const std::vector<fs::path> captures{fixture.first, fixture.second};
  EXPECT_THROW((void)run_shards(plan_shards(captures), test_telescope(), registry, config,
                                options),
               std::invalid_argument);
  const std::vector<fs::path> repeated{fixture.first, fixture.first};
  EXPECT_THROW((void)run_shards(plan_shards(repeated), test_telescope(), registry, config,
                                options),
               std::invalid_argument);

  // A capture given twice is refused before any shard is analyzed, so
  // even with the store and the probe cache on nothing is written; a
  // capture without probes, which the merger cannot order, is refused
  // too.
  const auto udp = fixture.dir / "udp.pcap";
  {
    auto writer = pcap::Writer::create(udp);
    net::UdpFrameSpec spec;
    spec.src_ip = src(3);
    spec.dst_ip = dst(0);
    spec.dst_port = 53;
    for (net::TimeUs i = 0; i < 3; ++i) {
      writer.write({5'000'000 + i * 10'000, net::build_udp_frame(spec)});
    }
    writer.flush();
  }
  ShardRunOptions stored;
  stored.workers = 1;
  const auto dotted = fixture.dir / "." / fixture.first.filename();
  const std::vector<std::vector<fs::path>> twice{
      {fixture.first, fixture.first}, {fixture.first, dotted}, {udp, udp}};
  for (const auto& pair : twice) {
    try {
      (void)run_shards(plan_shards(pair), test_telescope(), registry, config, stored);
      ADD_FAILURE() << "a repeated capture was merged: " << pair.back();
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("overlap in time"), std::string::npos) << message;
      EXPECT_NE(message.find("are the same capture"), std::string::npos) << message;
    }
    for (const auto& capture : pair) {
      EXPECT_FALSE(fs::exists(capture.string() + ".spc")) << capture;
      EXPECT_FALSE(fs::exists(rollup_path_for(capture))) << capture;
    }
  }
}

TEST(RollupTimeOrder, SlightlyOutOfOrderCaptureIsTrackedInFileOrder) {
  // One source's 150 probes 1 s apart, with the first two and the last
  // two records swapped: out of time order by 1 s, far inside the
  // expiry, and no gap comes near it. This pins what the code does with
  // such a capture; no whole-vs-sharded identity is claimed for it.
  const ShardFixture fixture("out_of_order");
  constexpr std::uint32_t kProbes = 150;
  const auto at = [](std::uint32_t i) {
    return 1'000'000 + static_cast<net::TimeUs>(i) * 1'000'000;
  };
  std::vector<std::uint32_t> order(kProbes);
  std::iota(order.begin(), order.end(), 0u);
  std::swap(order[0], order[1]);
  std::swap(order[kProbes - 2], order[kProbes - 1]);
  const auto write_records = [&](const fs::path& path, std::size_t begin, std::size_t end) {
    auto writer = pcap::Writer::create(path);
    net::RawFrame frame;
    for (std::size_t k = begin; k < end; ++k) {
      net::TcpFrameSpec tcp;
      tcp.src_ip = src(1);
      tcp.dst_ip = dst(order[k]);
      tcp.src_port = 44444;
      tcp.dst_port = 80;
      tcp.sequence = 1000 + order[k];
      frame.timestamp_us = at(order[k]);
      frame.bytes = net::build_tcp_frame(tcp);
      writer.write(frame);
    }
    writer.flush();
  };
  const auto whole = fixture.dir / "whole.pcap";
  write_records(whole, 0, kProbes);

  const auto& registry = enrich::InternetRegistry::synthetic_default();
  IngestOptions ingest;
  ingest.use_cache = false;
  // The flow starts at its first probe in file order and ends at its
  // latest probe.
  const auto serial = analyze_capture(whole, test_telescope(), registry, 1, ingest);
  ASSERT_EQ(serial.result.campaigns.size(), 1u);
  EXPECT_EQ(serial.result.campaigns[0].first_seen_us, at(1));
  EXPECT_EQ(serial.result.campaigns[0].last_seen_us, at(kProbes - 1));
  EXPECT_EQ(serial.result.campaigns[0].packets, kProbes);
  EXPECT_EQ(report_bytes(analyze_capture(whole, test_telescope(), registry, 3, ingest)),
            report_bytes(serial));
  // A shard's first probe is its first in file order, not its earliest.
  EXPECT_EQ(analyze_shard(whole, test_telescope(), registry, TrackerConfig{}, ingest)
                .first_probe_us,
            at(1));

  // Cut between either swapped pair, the two shards overlap in time.
  ShardRunOptions options;
  options.workers = 1;
  options.use_rollup_store = false;
  options.ingest = ingest;
  for (const std::size_t cut : {std::size_t{1}, std::size_t{kProbes - 1}}) {
    SCOPED_TRACE("cut before record " + std::to_string(cut));
    write_records(fixture.first, 0, cut);
    write_records(fixture.second, cut, kProbes);
    const std::vector<fs::path> shards{fixture.first, fixture.second};
    try {
      (void)run_shards(plan_shards(shards), test_telescope(), registry, TrackerConfig{},
                       options);
      ADD_FAILURE() << "shards that overlap in time were merged";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("shards overlap in time"), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace synscan::core
