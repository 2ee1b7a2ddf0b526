#include "core/analysis_recurrence.h"

#include <gtest/gtest.h>

#include "core/analysis_types.h"
#include "enrich/known_scanners.h"
#include "test_support.h"

namespace synscan::core {
namespace {

constexpr net::TimeUs kDay = net::kMicrosPerDay;

Campaign campaign_at(net::Ipv4Address source, net::TimeUs start,
                     net::TimeUs duration = net::kMicrosPerHour) {
  Campaign campaign;
  campaign.source = source;
  campaign.first_seen_us = start;
  campaign.last_seen_us = start + duration;
  campaign.packets = 200;
  campaign.port_packets[80] = 200;
  return campaign;
}

const enrich::InternetRegistry& registry() {
  return enrich::InternetRegistry::synthetic_default();
}

net::Ipv4Address residential_source(int i) {
  const auto pools = registry().records_of(enrich::ScannerType::kResidential);
  return pools[static_cast<std::size_t>(i) % pools.size()]->prefix.at(
      10 + static_cast<std::uint64_t>(i));
}

net::Ipv4Address institutional_source() {
  return enrich::find_known_scanner("Censys")->prefix.at(5);
}

TEST(Recurrence, OneShotSourcesAreNotRecurring) {
  std::vector<Campaign> campaigns;
  for (int i = 0; i < 10; ++i) {
    campaigns.push_back(campaign_at(residential_source(i), i * kDay));
  }
  const auto results = recurrence_by_type(campaigns, registry());
  const auto& residential =
      results[enrich::scanner_type_index(enrich::ScannerType::kResidential)];
  EXPECT_EQ(residential.sources, 10u);
  EXPECT_EQ(residential.recurring_sources, 0u);
  EXPECT_TRUE(residential.downtime_seconds.empty());
  EXPECT_DOUBLE_EQ(residential.campaigns_per_source.value_at_fraction(1.0), 1.0);
}

TEST(Recurrence, DailyInstitutionalScannerHasDailyMode) {
  std::vector<Campaign> campaigns;
  const auto source = institutional_source();
  for (int day = 0; day < 20; ++day) {
    campaigns.push_back(campaign_at(source, day * kDay, net::kMicrosPerHour));
  }
  const auto results = recurrence_by_type(campaigns, registry());
  const auto& institutional =
      results[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)];
  EXPECT_EQ(institutional.sources, 1u);
  EXPECT_EQ(institutional.recurring_sources, 1u);
  EXPECT_DOUBLE_EQ(institutional.daily_mode_fraction, 1.0);
  // Downtime between campaigns is ~23 hours.
  EXPECT_NEAR(institutional.downtime_seconds.value_at_fraction(0.5), 23.0 * 3600.0,
              3600.0);
}

TEST(Recurrence, Over100CampaignsFraction) {
  std::vector<Campaign> campaigns;
  const auto source = institutional_source();
  for (int i = 0; i < 150; ++i) {
    campaigns.push_back(campaign_at(source, i * kDay / 4));
  }
  campaigns.push_back(campaign_at(residential_source(1), 0));
  const auto results = recurrence_by_type(campaigns, registry());
  const auto& institutional =
      results[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)];
  EXPECT_DOUBLE_EQ(institutional.over_100_campaigns_fraction, 1.0);
  const auto& residential =
      results[enrich::scanner_type_index(enrich::ScannerType::kResidential)];
  EXPECT_DOUBLE_EQ(residential.over_100_campaigns_fraction, 0.0);
}

TEST(Recurrence, WeeklyScannerIsRecurrentButNotDailyMode) {
  std::vector<Campaign> campaigns;
  const auto source = residential_source(42);
  for (int week = 0; week < 5; ++week) {
    campaigns.push_back(campaign_at(source, week * 7 * kDay));
  }
  const auto results = recurrence_by_type(campaigns, registry());
  const auto& residential =
      results[enrich::scanner_type_index(enrich::ScannerType::kResidential)];
  EXPECT_EQ(residential.recurring_sources, 1u);
  EXPECT_DOUBLE_EQ(residential.daily_mode_fraction, 0.0);
}

TEST(Recurrence, UnsortedInputIsHandled) {
  std::vector<Campaign> campaigns;
  const auto source = residential_source(7);
  campaigns.push_back(campaign_at(source, 5 * kDay));
  campaigns.push_back(campaign_at(source, 1 * kDay));
  campaigns.push_back(campaign_at(source, 3 * kDay));
  const auto results = recurrence_by_type(campaigns, registry());
  const auto& residential =
      results[enrich::scanner_type_index(enrich::ScannerType::kResidential)];
  ASSERT_EQ(residential.downtime_seconds.size(), 2u);
  // Gaps are ~2 days each minus the 1h campaign duration; all positive.
  for (const auto gap : residential.downtime_seconds.sorted()) {
    EXPECT_GT(gap, 0.0);
    EXPECT_LT(gap, 3.0 * 24 * 3600);
  }
}

TEST(Recurrence, ResultsCoverAllTypes) {
  const auto results = recurrence_by_type({}, registry());
  EXPECT_EQ(results.size(), enrich::kScannerTypeCount);
  for (const auto& result : results) {
    EXPECT_EQ(result.sources, 0u);
    EXPECT_EQ(result.recurring_sources, 0u);
  }
}

TEST(TypeSpeedCoverage, AveragesPerSourceThenAggregates) {
  std::vector<Campaign> campaigns;
  // One institutional source with two campaigns at 10k and 20k pps.
  auto a = campaign_at(institutional_source(), 0);
  a.extrapolated_pps = 10000;
  a.coverage_fraction = 0.5;
  auto b = campaign_at(institutional_source(), kDay);
  b.extrapolated_pps = 20000;
  b.coverage_fraction = 1.0;
  campaigns.push_back(a);
  campaigns.push_back(b);
  // One slow residential source.
  auto c = campaign_at(residential_source(3), 0);
  c.extrapolated_pps = 200;
  c.coverage_fraction = 0.001;
  campaigns.push_back(c);

  const auto rows = type_speed_coverage(campaigns, registry());
  const auto& institutional =
      rows[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)];
  EXPECT_DOUBLE_EQ(institutional.mean_speed_pps, 15000.0);
  EXPECT_DOUBLE_EQ(institutional.mean_coverage, 0.75);
  EXPECT_DOUBLE_EQ(institutional.fraction_over_1000pps, 1.0);
  const auto& residential =
      rows[enrich::scanner_type_index(enrich::ScannerType::kResidential)];
  EXPECT_DOUBLE_EQ(residential.mean_speed_pps, 200.0);
  EXPECT_DOUBLE_EQ(residential.fraction_over_1000pps, 0.0);
}

TEST(OrgPortCoverage, UnionsPortsAcrossCampaigns) {
  std::vector<Campaign> campaigns;
  auto a = campaign_at(institutional_source(), 0);
  a.port_packets.clear();
  a.port_packets[80] = 10;
  a.port_packets[443] = 10;
  a.packets = 20;
  auto b = campaign_at(institutional_source(), kDay);
  b.port_packets.clear();
  b.port_packets[443] = 5;
  b.port_packets[22] = 5;
  b.packets = 10;
  campaigns.push_back(a);
  campaigns.push_back(b);
  // Non-institutional traffic is excluded.
  campaigns.push_back(campaign_at(residential_source(9), 0));

  const auto coverage = org_port_coverage(campaigns, registry());
  ASSERT_EQ(coverage.size(), 1u);
  EXPECT_EQ(coverage[0].organization, "Censys");
  EXPECT_EQ(coverage[0].distinct_ports, 3u);
  EXPECT_EQ(coverage[0].campaigns, 2u);
  EXPECT_EQ(coverage[0].packets, 30u);
}

TEST(TypeTally, Table2StyleShares) {
  const auto& reg = registry();
  PortTally tally;
  const auto inst = institutional_source();
  const auto res = residential_source(1);
  for (int i = 0; i < 70; ++i) {
    tally.on_probe(synscan::testing::ProbeBuilder().from(inst).port(443));
  }
  for (int i = 0; i < 30; ++i) {
    tally.on_probe(synscan::testing::ProbeBuilder().from(res).port(80));
  }
  const TypeView types(tally, reg);
  EXPECT_EQ(types.packets(enrich::ScannerType::kInstitutional), 70u);
  EXPECT_EQ(types.sources(enrich::ScannerType::kInstitutional), 1u);
  EXPECT_EQ(types.total_sources(), 2u);

  std::vector<Campaign> campaigns;
  campaigns.push_back(campaign_at(inst, 0));
  campaigns.push_back(campaign_at(res, 0));
  campaigns.push_back(campaign_at(res, kDay));
  const auto table = type_share_table(types, campaigns, reg);
  const auto& inst_row =
      table[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)];
  EXPECT_DOUBLE_EQ(inst_row.source_share, 0.5);
  EXPECT_NEAR(inst_row.scan_share, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(inst_row.packet_share, 0.7);

  // Fig. 5-style mix: port 443 is 100% institutional here.
  const auto mix = types.port_type_mix(443);
  EXPECT_DOUBLE_EQ(mix[enrich::scanner_type_index(enrich::ScannerType::kInstitutional)],
                   1.0);
  const auto top = tally.top_ports_by_packets(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].port, 443);
}

}  // namespace
}  // namespace synscan::core
