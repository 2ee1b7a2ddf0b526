#include "core/tracker.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace synscan::core {
namespace {

using synscan::testing::ProbeBuilder;

constexpr std::uint64_t kTelescopeSize = 71536;
// One telescope hit corresponds to ~60,042 Internet-wide probes; a probe
// per second therefore extrapolates far above the 100 pps threshold.
constexpr net::TimeUs kSecond = net::kMicrosPerSecond;

std::vector<telescope::ScanProbe> burst(net::Ipv4Address src, std::size_t count,
                                        net::TimeUs start, net::TimeUs gap,
                                        std::uint16_t port = 80) {
  std::vector<telescope::ScanProbe> probes;
  probes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    probes.push_back(ProbeBuilder()
                         .from(src)
                         .to(net::Ipv4Address(0xc6330000u + static_cast<std::uint32_t>(i)))
                         .port(port)
                         .at(start + static_cast<net::TimeUs>(i) * gap));
  }
  return probes;
}

TEST(CampaignTracker, QualifyingBurstBecomesOneCampaign) {
  const auto probes = burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 150, 0, kSecond);
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 1u);
  const auto& campaign = campaigns[0];
  EXPECT_EQ(campaign.packets, 150u);
  EXPECT_EQ(campaign.distinct_destinations, 150u);
  EXPECT_EQ(campaign.distinct_ports(), 1u);
  EXPECT_TRUE(campaign.targets_port(80));
  EXPECT_EQ(campaign.source.to_string(), "5.5.5.5");
}

TEST(CampaignTracker, TooFewDestinationsIsNoise) {
  const auto probes = burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 99, 0, kSecond);
  std::vector<Campaign> campaigns;
  CampaignTracker tracker({}, kTelescopeSize,
                          [&](Campaign&& c) { campaigns.push_back(std::move(c)); });
  for (const auto& probe : probes) tracker.feed(probe);
  tracker.finish();
  EXPECT_TRUE(campaigns.empty());
  EXPECT_EQ(tracker.counters().subthreshold_flows, 1u);
  EXPECT_EQ(tracker.counters().subthreshold_packets, 99u);
}

TEST(CampaignTracker, RepeatedDestinationsDoNotCountAsDistinct) {
  std::vector<telescope::ScanProbe> probes;
  for (int i = 0; i < 300; ++i) {
    probes.push_back(ProbeBuilder()
                         .from(net::Ipv4Address::from_octets(5, 5, 5, 5))
                         .to(net::Ipv4Address(0xc6330000u + static_cast<std::uint32_t>(i % 50)))
                         .at(i * kSecond));
  }
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  EXPECT_TRUE(campaigns.empty());  // only 50 distinct destinations
}

TEST(CampaignTracker, SlowScanBelowRateThresholdIsNoise) {
  // 150 hits spaced 50 minutes apart: inferred Internet-wide rate is
  // 60042/3000s = 20 pps < 100.
  const auto probes = burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 150, 0,
                            50 * 60 * kSecond);
  TrackerConfig config;
  config.expiry = 2 * net::kMicrosPerHour;  // keep the flow alive between probes
  const auto campaigns = testing::collect_campaigns(config, kTelescopeSize, probes);
  EXPECT_TRUE(campaigns.empty());
}

TEST(CampaignTracker, GapBeyondExpirySplitsCampaigns) {
  auto probes = burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 150, 0, kSecond);
  const auto second_burst =
      burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 150,
            150 * kSecond + 2 * net::kMicrosPerHour, kSecond);
  probes.insert(probes.end(), second_burst.begin(), second_burst.end());

  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 2u);
  EXPECT_EQ(campaigns[0].packets, 150u);
  EXPECT_EQ(campaigns[1].packets, 150u);
  EXPECT_LT(campaigns[0].last_seen_us, campaigns[1].first_seen_us);
}

TEST(CampaignTracker, GapWithinExpiryStaysOneCampaign) {
  auto probes = burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 150, 0, kSecond);
  const auto second_burst = burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 150,
                                  150 * kSecond + net::kMicrosPerHour / 2, kSecond);
  probes.insert(probes.end(), second_burst.begin(), second_burst.end());
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_EQ(campaigns[0].packets, 300u);
}

TEST(CampaignTracker, ConcurrentSourcesTrackedIndependently) {
  std::vector<telescope::ScanProbe> probes;
  for (int i = 0; i < 150; ++i) {
    for (std::uint8_t s = 1; s <= 3; ++s) {
      probes.push_back(ProbeBuilder()
                           .from(net::Ipv4Address::from_octets(9, 9, 9, s))
                           .to(net::Ipv4Address(0xc6330000u + static_cast<std::uint32_t>(i)))
                           .at(i * kSecond + s));
    }
  }
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  EXPECT_EQ(campaigns.size(), 3u);
}

TEST(CampaignTracker, ExtrapolationMatchesModel) {
  // 600 hits over 600 seconds -> telescope hit rate 1/s -> Internet-wide
  // ~60,042 pps, coverage 600/71536 of the telescope.
  const auto probes = burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 601, 0, kSecond);
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 1u);
  const auto& campaign = campaigns[0];
  const stats::TelescopeModel model(kTelescopeSize);
  EXPECT_NEAR(campaign.extrapolated_pps, 601.0 / 600.0 / model.hit_probability(), 1.0);
  EXPECT_NEAR(campaign.coverage_fraction, 601.0 / 71536.0, 1e-9);
  EXPECT_GT(campaign.speed_mbps(), 0.0);
}

TEST(CampaignTracker, MultiPortCampaignTracksPortCounts) {
  std::vector<telescope::ScanProbe> probes;
  for (int i = 0; i < 300; ++i) {
    probes.push_back(ProbeBuilder()
                         .from(net::Ipv4Address::from_octets(5, 5, 5, 5))
                         .to(net::Ipv4Address(0xc6330000u + static_cast<std::uint32_t>(i)))
                         .port(i % 2 == 0 ? 80 : 8080)
                         .at(i * kSecond));
  }
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_EQ(campaigns[0].distinct_ports(), 2u);
  EXPECT_EQ(campaigns[0].port_packets.at(80), 150u);
  EXPECT_EQ(campaigns[0].port_packets.at(8080), 150u);
}

TEST(CampaignTracker, SweepEvictsExpiredFlows) {
  TrackerConfig config;
  config.sweep_interval = 10;
  std::vector<Campaign> campaigns;
  CampaignTracker tracker(config, kTelescopeSize,
                          [&](Campaign&& c) { campaigns.push_back(std::move(c)); });
  // A qualifying burst from source A...
  for (const auto& probe :
       burst(net::Ipv4Address::from_octets(5, 5, 5, 5), 150, 0, kSecond)) {
    tracker.feed(probe);
  }
  // ...then unrelated traffic 3 hours later triggers the sweep.
  for (const auto& probe :
       burst(net::Ipv4Address::from_octets(6, 6, 6, 6), 20, 3 * net::kMicrosPerHour,
             kSecond)) {
    tracker.feed(probe);
  }
  EXPECT_EQ(campaigns.size(), 1u);  // A was emitted by the sweep, not finish()
  EXPECT_EQ(tracker.open_flows(), 1u);
  tracker.finish();
  EXPECT_EQ(tracker.open_flows(), 0u);
}

TEST(CampaignTracker, ToolVerdictAttachedToCampaign) {
  std::vector<telescope::ScanProbe> probes;
  for (int i = 0; i < 150; ++i) {
    probes.push_back(ProbeBuilder()
                         .from(net::Ipv4Address::from_octets(5, 5, 5, 5))
                         .to(net::Ipv4Address(0xc6330000u + static_cast<std::uint32_t>(i)))
                         .ipid(54321)
                         .at(i * kSecond));
  }
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_EQ(campaigns[0].tool, fingerprint::Tool::kZmap);
}

TEST(CampaignTracker, CampaignIdsAreUniqueAndIncreasing) {
  std::vector<telescope::ScanProbe> probes;
  for (std::uint8_t s = 1; s <= 4; ++s) {
    const auto b = burst(net::Ipv4Address::from_octets(9, 0, 0, s), 150,
                         s * 10 * kSecond, kSecond);
    probes.insert(probes.end(), b.begin(), b.end());
  }
  std::sort(probes.begin(), probes.end(),
            [](const auto& a, const auto& b) { return a.timestamp_us < b.timestamp_us; });
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 4u);
  for (std::size_t i = 1; i < campaigns.size(); ++i) {
    EXPECT_GT(campaigns[i].id, 0u);
  }
}

TEST(CampaignTracker, CountersAreConsistent) {
  std::vector<Campaign> campaigns;
  CampaignTracker tracker({}, kTelescopeSize,
                          [&](Campaign&& c) { campaigns.push_back(std::move(c)); });
  const auto good = burst(net::Ipv4Address::from_octets(1, 1, 1, 1), 200, 0, kSecond);
  const auto bad = burst(net::Ipv4Address::from_octets(2, 2, 2, 2), 10, 0, kSecond);
  for (const auto& probe : good) tracker.feed(probe);
  for (const auto& probe : bad) tracker.feed(probe);
  tracker.finish();
  EXPECT_EQ(tracker.counters().probes, 210u);
  EXPECT_EQ(tracker.counters().campaigns, 1u);
  EXPECT_EQ(tracker.counters().subthreshold_flows, 1u);
}

TEST(CampaignTracker, RequiresSink) {
  EXPECT_THROW(CampaignTracker({}, kTelescopeSize, nullptr), std::invalid_argument);
}

TEST(CampaignTracker, DurationFlooredAtOneSecond) {
  // All probes in the same microsecond still yield a finite rate.
  std::vector<telescope::ScanProbe> probes;
  for (int i = 0; i < 150; ++i) {
    probes.push_back(ProbeBuilder()
                         .from(net::Ipv4Address::from_octets(5, 5, 5, 5))
                         .to(net::Ipv4Address(0xc6330000u + static_cast<std::uint32_t>(i)))
                         .at(1000));
  }
  const auto campaigns = testing::collect_campaigns({}, kTelescopeSize, probes);
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_DOUBLE_EQ(campaigns[0].duration_seconds(), 1.0);
}

}  // namespace
}  // namespace synscan::core
