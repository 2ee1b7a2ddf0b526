#include "core/analysis_campaigns.h"

#include <gtest/gtest.h>

#include "core/analysis_geo.h"
#include "core/analysis_summary.h"
#include "core/analysis_tools.h"
#include "core/analysis_types.h"
#include "stats/hypothesis.h"
#include "test_support.h"

namespace synscan::core {
namespace {

Campaign make_campaign(std::uint32_t source, fingerprint::Tool tool,
                       std::initializer_list<std::pair<std::uint16_t, std::uint64_t>> ports,
                       double pps = 1000.0, double coverage = 0.01,
                       net::TimeUs start = 0) {
  Campaign campaign;
  campaign.source = net::Ipv4Address(source);
  campaign.tool = tool;
  campaign.first_seen_us = start;
  campaign.last_seen_us = start + 60 * net::kMicrosPerSecond;
  campaign.extrapolated_pps = pps;
  campaign.coverage_fraction = coverage;
  for (const auto& [port, packets] : ports) {
    campaign.port_packets[port] = packets;
    campaign.packets += packets;
  }
  return campaign;
}

TEST(ToolShares, ByScansAndByPackets) {
  std::vector<Campaign> campaigns;
  campaigns.push_back(make_campaign(1, fingerprint::Tool::kZmap, {{80, 10}}));
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kZmap, {{80, 10}}));
  campaigns.push_back(make_campaign(3, fingerprint::Tool::kMasscan, {{443, 180}}));
  const auto shares = tool_shares(campaigns);
  EXPECT_NEAR(shares.by_scans.share(fingerprint::Tool::kZmap), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(shares.by_packets.share(fingerprint::Tool::kMasscan), 0.9, 1e-12);
}

TEST(TopPortsByScans, CountsCampaignsPerPort) {
  std::vector<Campaign> campaigns;
  campaigns.push_back(make_campaign(1, fingerprint::Tool::kUnknown, {{80, 1}, {8080, 1}}));
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kUnknown, {{80, 500}}));
  campaigns.push_back(make_campaign(3, fingerprint::Tool::kUnknown, {{22, 5}}));
  const auto top = top_ports_by_scans(campaigns, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].port, 80);
  EXPECT_EQ(top[0].count, 2u);
  EXPECT_NEAR(top[0].share, 2.0 / 3.0, 1e-12);
}

TEST(SpeedSamples, FilterByTool) {
  std::vector<Campaign> campaigns;
  campaigns.push_back(make_campaign(1, fingerprint::Tool::kNmap, {{22, 1}}, 9000));
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kNmap, {{22, 1}}, 11000));
  campaigns.push_back(make_campaign(3, fingerprint::Tool::kMirai, {{23, 1}}, 300));
  const auto nmap = speed_sample(campaigns, fingerprint::Tool::kNmap);
  ASSERT_EQ(nmap.size(), 2u);
  EXPECT_EQ(speed_sample(campaigns).size(), 3u);
  EXPECT_EQ(speed_sample(campaigns, fingerprint::Tool::kZmap).size(), 0u);
}

TEST(TopSpeedMean, TakesFastest) {
  std::vector<Campaign> campaigns;
  for (const double pps : {100.0, 200.0, 300.0, 400.0}) {
    campaigns.push_back(make_campaign(1, fingerprint::Tool::kUnknown, {{80, 1}}, pps));
  }
  EXPECT_DOUBLE_EQ(top_speed_mean(campaigns, 2), 350.0);
  EXPECT_DOUBLE_EQ(top_speed_mean(campaigns, 10), 250.0);  // clamped to all
  EXPECT_EQ(top_speed_mean({}, 5), 0.0);
}

TEST(VerticalScanCensus, ThresholdBuckets) {
  std::vector<Campaign> campaigns;
  Campaign vertical;
  vertical.source = net::Ipv4Address(1);
  for (std::uint32_t p = 1; p <= 12000; ++p) vertical.port_packets[static_cast<std::uint16_t>(p)] = 1;
  vertical.packets = 12000;
  vertical.extrapolated_pps = 500000;
  campaigns.push_back(vertical);
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kUnknown, {{80, 5}}));

  const auto census = vertical_scan_census(campaigns);
  EXPECT_EQ(census.total_campaigns, 2u);
  EXPECT_EQ(census.over_10_ports, 1u);
  EXPECT_EQ(census.over_1000_ports, 1u);
  EXPECT_EQ(census.over_10000_ports, 1u);
  EXPECT_EQ(census.max_ports, 12000u);
  EXPECT_GT(census.mean_speed_over_1000_mbps, census.mean_speed_all_mbps / 2);
}

TEST(SpeedBreadthSample, PairsUpForCorrelation) {
  std::vector<Campaign> campaigns;
  for (int i = 1; i <= 20; ++i) {
    Campaign campaign;
    campaign.source = net::Ipv4Address(static_cast<std::uint32_t>(i));
    for (int p = 0; p < i; ++p) campaign.port_packets[static_cast<std::uint16_t>(p + 1)] = 1;
    campaign.extrapolated_pps = 100.0 * i;  // speed grows with breadth
    campaigns.push_back(campaign);
  }
  const auto sample = speed_breadth_sample(campaigns);
  const auto corr = stats::pearson(sample.ports, sample.pps);
  EXPECT_GT(corr.r, 0.99);  // §5.3's positive correlation, by construction
  EXPECT_LT(corr.p_value, 0.001);
}

TEST(CampaignsPerDay, BucketsByStartDay) {
  std::vector<Campaign> campaigns;
  campaigns.push_back(
      make_campaign(1, fingerprint::Tool::kZmap, {{80, 1}}, 1000, 0.01, 0));
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kZmap, {{80, 1}}, 1000, 0.01,
                                    2 * net::kMicrosPerDay + 5));
  campaigns.push_back(make_campaign(3, fingerprint::Tool::kMasscan, {{80, 1}}, 1000,
                                    0.01, 2 * net::kMicrosPerDay));
  const auto days = campaigns_per_day(campaigns, 0, fingerprint::Tool::kZmap);
  ASSERT_EQ(days.size(), 3u);
  EXPECT_EQ(days[0], 1u);
  EXPECT_EQ(days[1], 0u);
  EXPECT_EQ(days[2], 1u);
}

TEST(DistinctSources, CountsUniquePerTool) {
  std::vector<Campaign> campaigns;
  campaigns.push_back(make_campaign(1, fingerprint::Tool::kZmap, {{80, 1}}));
  campaigns.push_back(make_campaign(1, fingerprint::Tool::kZmap, {{80, 1}}));
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kZmap, {{80, 1}}));
  EXPECT_EQ(distinct_sources(campaigns, fingerprint::Tool::kZmap), 2u);
}

TEST(PortToolMix, SharesPerPort) {
  std::vector<Campaign> campaigns;
  campaigns.push_back(make_campaign(1, fingerprint::Tool::kZmap, {{80, 75}}));
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kMirai, {{80, 25}}));
  campaigns.push_back(make_campaign(3, fingerprint::Tool::kNmap, {{22, 10}}));
  const auto mix = port_tool_mix(campaigns, 10);
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].port, 80);  // most packets
  EXPECT_DOUBLE_EQ(mix[0].tool_share[fingerprint::tool_index(fingerprint::Tool::kZmap)],
                   0.75);
  EXPECT_DOUBLE_EQ(mix[0].tool_share[fingerprint::tool_index(fingerprint::Tool::kMirai)],
                   0.25);
  EXPECT_DOUBLE_EQ(mix[1].tool_share[fingerprint::tool_index(fingerprint::Tool::kNmap)],
                   1.0);
}

TEST(YearlySummary, AssemblesAllBlocks) {
  PortTally tally;
  for (int i = 0; i < 100; ++i) {
    tally.on_probe(synscan::testing::ProbeBuilder()
                       .from(net::Ipv4Address(0x01000000u + static_cast<std::uint32_t>(i % 7)))
                       .port(i % 2 == 0 ? 80 : 22));
  }
  std::vector<Campaign> campaigns;
  campaigns.push_back(make_campaign(1, fingerprint::Tool::kZmap, {{80, 60}}));
  campaigns.push_back(make_campaign(2, fingerprint::Tool::kUnknown, {{22, 40}}));

  const auto summary = yearly_summary(2020, 50.0, tally, campaigns);
  EXPECT_EQ(summary.year, 2020);
  EXPECT_EQ(summary.total_packets, 100u);
  EXPECT_DOUBLE_EQ(summary.packets_per_day, 2.0);
  EXPECT_EQ(summary.total_scans, 2u);
  EXPECT_NEAR(summary.scans_per_month, 2.0 / 50.0 * 30.44, 1e-9);
  EXPECT_EQ(summary.distinct_sources, 7u);
  EXPECT_DOUBLE_EQ(summary.mean_packets_per_scan, 50.0);
  EXPECT_EQ(summary.top_ports_by_packets.size(), 2u);
  EXPECT_NEAR(summary.tools.by_scans.share(fingerprint::Tool::kZmap), 0.5, 1e-12);
}

TEST(GeoTally, CountryAttribution) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto cn_pools = registry.records_of(enrich::CountryCode("CN"));
  const auto us_pools = registry.records_of(enrich::CountryCode("US"));
  ASSERT_FALSE(cn_pools.empty());
  ASSERT_FALSE(us_pools.empty());

  PortTally tally;
  for (int i = 0; i < 80; ++i) {
    tally.on_probe(synscan::testing::ProbeBuilder()
                       .from(cn_pools[0]->prefix.at(10))
                       .port(3389));
  }
  for (int i = 0; i < 20; ++i) {
    tally.on_probe(synscan::testing::ProbeBuilder()
                       .from(us_pools[0]->prefix.at(10))
                       .port(443));
  }
  const GeoView geo(tally, registry);
  EXPECT_NEAR(geo.country_share(enrich::CountryCode("CN")), 0.8, 1e-12);
  EXPECT_NEAR(geo.country_share(enrich::CountryCode("US")), 0.2, 1e-12);
  const auto top = geo.top_countries(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].country, enrich::CountryCode("CN"));

  // Port 3389 is >80% Chinese; port 443 is >80% American.
  const auto dominated = geo.dominated_ports(0.8, 10);
  EXPECT_EQ(dominated.at(enrich::CountryCode("CN")), 1u);
  EXPECT_EQ(dominated.at(enrich::CountryCode("US")), 1u);

  const auto mix = geo.port_country_mix(3389, 3);
  ASSERT_FALSE(mix.empty());
  EXPECT_EQ(mix[0].country, enrich::CountryCode("CN"));
  EXPECT_DOUBLE_EQ(mix[0].share, 1.0);
}

TEST(CampaignCountryShares, RanksByCampaignCount) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto nl_pools = registry.records_of(enrich::CountryCode("NL"));
  ASSERT_FALSE(nl_pools.empty());
  std::vector<Campaign> campaigns;
  for (int i = 0; i < 3; ++i) {
    campaigns.push_back(
        make_campaign(nl_pools[0]->prefix.at(5).value(), fingerprint::Tool::kUnknown,
                      {{80, 1}}));
  }
  const auto shares = campaign_country_shares(campaigns, registry, 5);
  ASSERT_FALSE(shares.empty());
  EXPECT_EQ(shares[0].country, enrich::CountryCode("NL"));
  EXPECT_DOUBLE_EQ(shares[0].share, 1.0);
}

TEST(ToolCountryMix, FiltersTool) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto ru_pools = registry.records_of(enrich::CountryCode("RU"));
  ASSERT_FALSE(ru_pools.empty());
  std::vector<Campaign> campaigns;
  for (int i = 0; i < 9; ++i) {
    campaigns.push_back(make_campaign(ru_pools[0]->prefix.at(5).value(),
                                      fingerprint::Tool::kMasscan, {{80, 1}}));
  }
  campaigns.push_back(make_campaign(ru_pools[0]->prefix.at(6).value(),
                                    fingerprint::Tool::kZmap, {{80, 1}}));
  const auto mix = tool_country_mix(campaigns, registry, fingerprint::Tool::kMasscan, 3);
  ASSERT_EQ(mix.size(), 1u);
  EXPECT_EQ(mix[0].country, enrich::CountryCode("RU"));
  EXPECT_EQ(mix[0].scans, 9u);
  EXPECT_DOUBLE_EQ(mix[0].share, 1.0);
}

}  // namespace
}  // namespace synscan::core
