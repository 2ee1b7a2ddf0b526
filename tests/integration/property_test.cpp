// Property-based suites: invariants that must hold for arbitrary
// workloads, swept over seeds with parameterized tests.
#include <gtest/gtest.h>

#include <numeric>

#include "core/pipeline.h"
#include "core/port_tally.h"
#include "core/reference_tallies.h"
#include "pcap/pcap.h"
#include "reference_decode.h"
#include "simgen/generator.h"
#include "simgen/rng.h"
#include "test_support.h"

namespace synscan {
namespace {

// ---------------------------------------------------------------------------
// Tracker conservation laws under random probe streams.
// ---------------------------------------------------------------------------

class TrackerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<telescope::ScanProbe> random_probe_stream(std::uint64_t seed,
                                                      std::size_t count) {
  simgen::Rng rng(seed);
  std::vector<telescope::ScanProbe> probes;
  probes.reserve(count);
  net::TimeUs t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    telescope::ScanProbe probe;
    // A handful of sources with very different behaviors.
    probe.source = net::Ipv4Address(0x0a000000u + static_cast<std::uint32_t>(rng.uniform(24)));
    probe.destination = net::Ipv4Address(0xc6330000u + rng.next_u32() % 4096);
    probe.destination_port = static_cast<std::uint16_t>(1 + rng.uniform(1024));
    probe.source_port = rng.next_u16();
    probe.sequence = rng.next_u32();
    probe.ip_id = rng.next_u16();
    t += static_cast<net::TimeUs>(rng.exponential(3e6));  // ~3s mean gap
    probe.timestamp_us = t;
    probes.push_back(probe);
  }
  return probes;
}

TEST_P(TrackerPropertyTest, PacketsAreConserved) {
  const auto probes = random_probe_stream(GetParam(), 5000);
  std::vector<core::Campaign> campaigns;
  core::CampaignTracker tracker({}, 71536, [&](core::Campaign&& campaign) {
    campaigns.push_back(std::move(campaign));
  });
  for (const auto& probe : probes) tracker.feed(probe);
  tracker.finish();

  std::uint64_t campaign_packets = 0;
  for (const auto& campaign : campaigns) campaign_packets += campaign.packets;
  EXPECT_EQ(campaign_packets + tracker.counters().subthreshold_packets, probes.size());
  EXPECT_EQ(tracker.counters().probes, probes.size());
}

TEST_P(TrackerPropertyTest, CampaignInvariantsHold) {
  const auto probes = random_probe_stream(GetParam() ^ 0xabcd, 8000);
  const auto campaigns = testing::collect_campaigns({}, 71536, probes);
  for (const auto& campaign : campaigns) {
    EXPECT_LE(campaign.first_seen_us, campaign.last_seen_us);
    EXPECT_GE(campaign.distinct_destinations, 100u);  // threshold respected
    EXPECT_LE(campaign.distinct_destinations, campaign.packets);
    EXPECT_GE(campaign.extrapolated_pps, 100.0);      // rate threshold respected
    std::uint64_t port_sum = 0;
    for (const auto& [port, packets] : campaign.port_packets) port_sum += packets;
    EXPECT_EQ(port_sum, campaign.packets);
    EXPECT_GE(campaign.coverage_fraction, 0.0);
    EXPECT_LE(campaign.coverage_fraction, 1.0);
  }
}

TEST_P(TrackerPropertyTest, FeedOrderWithinSourcesIsWhatMatters) {
  // Interleaving probes of different sources must not change per-source
  // campaign totals.
  auto probes = random_probe_stream(GetParam() ^ 0x77, 4000);
  const auto campaigns_a = testing::collect_campaigns({}, 71536, probes);

  // Stable-partition by source parity, preserving per-source order and
  // timestamps (the tracker keys expiry on per-source gaps).
  std::stable_sort(probes.begin(), probes.end(),
                   [](const telescope::ScanProbe& a, const telescope::ScanProbe& b) {
                     return (a.source.value() & 1) < (b.source.value() & 1);
                   });
  const auto campaigns_b = testing::collect_campaigns({}, 71536, probes);

  std::map<std::uint32_t, std::uint64_t> packets_a;
  std::map<std::uint32_t, std::uint64_t> packets_b;
  for (const auto& campaign : campaigns_a) packets_a[campaign.source.value()] += campaign.packets;
  for (const auto& campaign : campaigns_b) packets_b[campaign.source.value()] += campaign.packets;
  EXPECT_EQ(packets_a, packets_b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------------------------------------------------------------------------
// Pcap round trips over random frame contents.
// ---------------------------------------------------------------------------

class PcapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcapPropertyTest, ArbitraryFramesRoundTrip) {
  simgen::Rng rng(GetParam());
  std::vector<net::RawFrame> frames;
  net::TimeUs t = 0;
  for (int i = 0; i < 200; ++i) {
    net::RawFrame frame;
    t += static_cast<net::TimeUs>(rng.uniform(10'000'000));
    frame.timestamp_us = t;
    frame.bytes.resize(rng.uniform(512));
    for (auto& b : frame.bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    frames.push_back(std::move(frame));
  }
  const testing::ScratchDir dir;
  const auto path = dir / "roundtrip.pcap";
  pcap::write_file(path, frames);
  const auto [read, status] = pcap::read_file(path);
  ASSERT_EQ(status, pcap::ReadStatus::kEndOfFile);
  ASSERT_EQ(read.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(read[i].timestamp_us, frames[i].timestamp_us);
    EXPECT_EQ(read[i].bytes, frames[i].bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapPropertyTest, ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------------------
// Sensor: every frame is classified exactly once; probes only from SYNs.
// ---------------------------------------------------------------------------

class SensorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SensorPropertyTest, ClassificationIsTotalAndCountersBalance) {
  simgen::Rng rng(GetParam());
  const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 700}}, {{23, 0}});
  telescope::Sensor sensor(telescope);
  telescope::ScanProbe probe;

  const std::size_t kFrames = 3000;
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    net::RawFrame frame;
    frame.timestamp_us = static_cast<net::TimeUs>(i);
    const auto kind = rng.uniform(5);
    if (kind == 4) {
      // Garbage bytes.
      frame.bytes.resize(rng.uniform(64));
      for (auto& b : frame.bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    } else {
      net::TcpFrameSpec spec;
      spec.src_ip = net::Ipv4Address(rng.next_u32());
      spec.dst_ip = net::Ipv4Address(0xc6330000u + rng.next_u32() % 8192);
      spec.dst_port = static_cast<std::uint16_t>(rng.uniform(2048));
      spec.src_port = rng.next_u16();
      spec.sequence = rng.next_u32();
      spec.flags = static_cast<std::uint8_t>(rng.uniform(64));
      frame.bytes = net::build_tcp_frame(spec);
    }
    if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
      ++probes;
      // A probe implies the destination is dark and the port unblocked.
      EXPECT_TRUE(telescope.monitors(probe.destination));
      EXPECT_NE(probe.destination_port, 23);
      EXPECT_FALSE(probe.source.is_reserved_source());
    }
  }
  EXPECT_EQ(sensor.counters().total(), kFrames);
  EXPECT_EQ(sensor.counters().scan_probes, probes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SensorPropertyTest, ::testing::Values(7u, 19u, 23u));

// ---------------------------------------------------------------------------
// Generator: hits arrive for every planned campaign; PortTally agrees
// with the tracker on totals.
// ---------------------------------------------------------------------------

TEST(GeneratorProperty, ObserversAndTrackerAgree) {
  const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {});
  simgen::YearConfig config;
  config.window_days = 1;
  config.seed = 99;
  config.port_table = {{80, 1}};
  config.noise_sources = 25;
  config.backscatter_fraction = 0.0;
  simgen::GroupSpec group;
  group.name = "agree";
  group.sources = 2;
  group.campaigns = 4;
  group.hits_median = 250;
  group.hits_sigma = 1.1;
  group.pps_median = 500000;
  group.pps_sigma = 1.1;
  config.groups.push_back(group);

  core::Pipeline pipeline(telescope);
  core::PortTally tally;
  pipeline.add_observer(tally);
  const auto stats = testing::generate_into(pipeline, telescope, config);
  const auto result = pipeline.finish();

  EXPECT_EQ(stats.scan_frames, result.sensor.scan_probes);
  EXPECT_EQ(tally.total_packets(), result.sensor.scan_probes);
  std::uint64_t campaign_packets = 0;
  for (const auto& campaign : result.campaigns) campaign_packets += campaign.packets;
  EXPECT_EQ(campaign_packets + result.tracker.subthreshold_packets,
            tally.total_packets());
  // The tally the pipeline folds from the same flows agrees row by row.
  testing::expect_same_port_tally(result.port_tally(), tally);
}

}  // namespace
}  // namespace synscan
