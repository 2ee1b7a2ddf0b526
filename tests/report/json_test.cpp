#include "report/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace synscan::report {
namespace {

core::Campaign sample_campaign() {
  core::Campaign campaign;
  campaign.id = 7;
  campaign.source = net::Ipv4Address::from_octets(1, 2, 3, 4);
  campaign.tool = fingerprint::Tool::kMasscan;
  campaign.first_seen_us = 1000;
  campaign.last_seen_us = 61'000'000;
  campaign.packets = 500;
  campaign.distinct_destinations = 450;
  campaign.port_packets[443] = 300;
  campaign.port_packets[80] = 200;
  campaign.extrapolated_pps = 12345.5;
  campaign.coverage_fraction = 0.0123;
  return campaign;
}

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(CampaignJson, ContainsAllFieldsSorted) {
  std::string text;
  append_campaign_json(text, sample_campaign());
  EXPECT_NE(text.find("\"id\":7"), std::string::npos);
  EXPECT_NE(text.find("\"source\":\"1.2.3.4\""), std::string::npos);
  EXPECT_NE(text.find("\"tool\":\"masscan\""), std::string::npos);
  EXPECT_NE(text.find("\"packets\":500"), std::string::npos);
  EXPECT_NE(text.find("\"destinations\":450"), std::string::npos);
  EXPECT_NE(text.find("\"ports\":[80,443]"), std::string::npos);  // ascending
  EXPECT_NE(text.find("\"distinct_ports\":2"), std::string::npos);
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_EQ(text.find('\n'), std::string::npos);  // single line
}

TEST(CampaignJson, PortListCapRespected) {
  auto campaign = sample_campaign();
  campaign.port_packets.clear();
  for (std::uint16_t port = 1; port <= 100; ++port) campaign.port_packets[port] = 1;
  std::string text;
  append_campaign_json(text, campaign, 10);
  EXPECT_NE(text.find("\"ports\":[1,2,3,4,5,6,7,8,9,10]"), std::string::npos);
  EXPECT_NE(text.find("\"distinct_ports\":100"), std::string::npos);

  // Ports inserted in descending order: the listed prefix is still the
  // smallest ports, ascending.
  campaign.port_packets.clear();
  for (std::uint16_t port = 12; port >= 1; --port) campaign.port_packets[port] = 1;
  text.clear();
  append_campaign_json(text, campaign, 8);
  EXPECT_NE(text.find("\"ports\":[1,2,3,4,5,6,7,8]"), std::string::npos) << text;
  EXPECT_NE(text.find("\"distinct_ports\":12"), std::string::npos);
}

TEST(CampaignJson, JsonlOneLinePerCampaign) {
  std::vector<core::Campaign> campaigns(3, sample_campaign());
  std::string text;
  append_campaigns_jsonl(text, campaigns);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(CountersJson, AllCountersPresent) {
  core::PipelineResult result;
  result.sensor.scan_probes = 10;
  result.sensor.backscatter = 2;
  result.tracker.subthreshold_flows = 5;
  std::string text;
  append_counters_json(text, result);
  EXPECT_NE(text.find("\"scan_probes\":10"), std::string::npos);
  EXPECT_NE(text.find("\"backscatter\":2"), std::string::npos);
  EXPECT_NE(text.find("\"subthreshold_flows\":5"), std::string::npos);
  EXPECT_NE(text.find("\"campaigns\":0"), std::string::npos);
}

}  // namespace
}  // namespace synscan::report
