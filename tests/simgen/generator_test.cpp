#include "simgen/generator.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/pipeline.h"
#include "enrich/known_scanners.h"
#include "simgen/ecosystem.h"
#include "test_support.h"

namespace synscan::simgen {
namespace {

const telescope::Telescope& small_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {});
  return telescope;
}

YearConfig tiny_config() {
  YearConfig config;
  config.year = 2020;
  config.window_days = 2;
  config.start_time = 0;
  config.seed = 424242;
  config.port_table = {{80, 50}, {22, 30}, {443, 20}};
  config.noise_sources = 20;
  config.backscatter_fraction = 0.05;

  GroupSpec group;
  group.name = "test-masscan";
  group.tool = WireTool::kMasscan;
  group.pool = enrich::ScannerType::kHosting;
  group.sources = 3;
  group.campaigns = 6;
  group.hits_median = 300;
  group.hits_sigma = 1.2;
  group.pps_median = 500000;  // small telescope -> keep gaps short
  group.pps_sigma = 1.2;
  config.groups.push_back(group);
  return config;
}

TEST(TrafficGenerator, EmitsFramesInTimestampOrder) {
  TrafficGenerator generator(tiny_config(), small_telescope(),
                             enrich::InternetRegistry::synthetic_default());
  net::TimeUs previous = -1;
  std::uint64_t frames = 0;
  const auto stats = generator.run([&](const net::RawFrame& frame) {
    EXPECT_GE(frame.timestamp_us, previous);
    previous = frame.timestamp_us;
    ++frames;
  });
  EXPECT_EQ(stats.total_frames, frames);
  EXPECT_GT(stats.scan_frames, 1000u);
  EXPECT_GT(stats.backscatter_frames, 0u);
}

TEST(TrafficGenerator, IsDeterministic) {
  std::vector<std::uint64_t> digest1;
  std::vector<std::uint64_t> digest2;
  const auto run = [&](std::vector<std::uint64_t>& digest) {
    TrafficGenerator generator(tiny_config(), small_telescope(),
                               enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& frame) {
      std::uint64_t h = static_cast<std::uint64_t>(frame.timestamp_us);
      for (const auto b : frame.bytes) h = h * 131 + b;
      digest.push_back(h);
    });
  };
  run(digest1);
  run(digest2);
  EXPECT_EQ(digest1, digest2);
}

TEST(TrafficGenerator, DifferentSeedsProduceDifferentTraffic) {
  auto config = tiny_config();
  const auto digest_of = [&](const YearConfig& c) {
    std::uint64_t digest = 0;
    TrafficGenerator generator(c, small_telescope(),
                               enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& f) {
      for (const auto b : f.bytes) digest = digest * 1099511628211ull + b;
    });
    return digest;
  };
  const auto checksum1 = digest_of(config);
  config.seed ^= 0x1234;
  const auto checksum2 = digest_of(config);
  EXPECT_NE(checksum1, checksum2);
}

TEST(TrafficGenerator, AllScanFramesTargetTheTelescope) {
  TrafficGenerator generator(tiny_config(), small_telescope(),
                             enrich::InternetRegistry::synthetic_default());
  (void)generator.run([&](const net::RawFrame& frame) {
    const auto decoded = net::decode_frame(frame.bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(small_telescope().monitors(decoded->ip.destination))
        << decoded->ip.destination.to_string();
  });
}

TEST(TrafficGenerator, FramesAreWireValid) {
  TrafficGenerator generator(tiny_config(), small_telescope(),
                             enrich::InternetRegistry::synthetic_default());
  std::uint64_t checked = 0;
  (void)generator.run([&](const net::RawFrame& frame) {
    if (checked++ % 37 != 0) return;  // sample for speed
    const auto decoded = net::decode_frame(frame.bytes);
    ASSERT_TRUE(decoded.has_value());
    if (decoded->tcp() != nullptr) {
      EXPECT_TRUE(net::verify_tcp_checksum(frame.bytes));
    }
  });
}

TEST(TrafficGenerator, CampaignsAreDetectableByTracker) {
  core::Pipeline pipeline(small_telescope());
  testing::generate_into(pipeline, small_telescope(), tiny_config());
  const auto result = pipeline.finish();
  // 6 planned campaigns with ~300 hits each; all should qualify.
  EXPECT_EQ(result.campaigns.size(), 6u);
  for (const auto& campaign : result.campaigns) {
    EXPECT_EQ(campaign.tool, fingerprint::Tool::kMasscan);
    EXPECT_GE(campaign.distinct_destinations, 100u);
  }
  // Noise sources were all sub-threshold (a slow noise source whose
  // inter-probe gap exceeds the expiry splits into several flows).
  EXPECT_GE(result.tracker.subthreshold_flows, 20u);
}

TEST(TrafficGenerator, ShardedGroupSharesPortAndStart) {
  auto config = tiny_config();
  config.groups.clear();
  config.noise_sources = 0;
  config.backscatter_fraction = 0.0;
  GroupSpec shard;
  shard.name = "shard";
  shard.tool = WireTool::kZmap;
  shard.pool = enrich::ScannerType::kHosting;
  shard.sources = 8;
  shard.sharded = true;
  shard.hits_median = 200;
  shard.hits_sigma = 1.1;
  shard.pps_median = 500000;
  shard.pps_sigma = 1.1;
  config.groups.push_back(shard);

  TrafficGenerator generator(config, small_telescope(),
                             enrich::InternetRegistry::synthetic_default());
  std::unordered_set<std::uint16_t> ports;
  std::unordered_set<std::uint32_t> sources;
  (void)generator.run([&](const net::RawFrame& frame) {
    const auto decoded = net::decode_frame(frame.bytes);
    ASSERT_TRUE(decoded.has_value());
    ports.insert(decoded->tcp()->destination_port);
    sources.insert(decoded->ip.source.value());
  });
  EXPECT_EQ(ports.size(), 1u);   // one logical scan, one port
  EXPECT_EQ(sources.size(), 8u);  // split across all shard members
  // All shard members live in one /24 (the paper's collaborating-subnet
  // signature, §6.4).
  std::unordered_set<std::uint32_t> subnets;
  for (const auto source : sources) subnets.insert(source >> 8);
  EXPECT_EQ(subnets.size(), 1u);
}

TEST(TrafficGenerator, InstitutionalGroupUsesOrgPrefix) {
  auto config = tiny_config();
  config.groups.clear();
  config.noise_sources = 0;
  config.backscatter_fraction = 0.0;
  GroupSpec inst;
  inst.name = "inst:Censys";
  inst.organization = "Censys";
  inst.pool = enrich::ScannerType::kInstitutional;
  inst.tool = WireTool::kZmap;
  inst.sources = 1;
  inst.recur_days = 1.0;
  inst.hits_median = 150;
  inst.hits_sigma = 1.1;
  inst.pps_median = 500000;
  inst.pps_sigma = 1.1;
  inst.ports = PortPlanSpec::subset(500, 99);
  config.groups.push_back(inst);

  const auto* censys = enrich::find_known_scanner("Censys");
  ASSERT_NE(censys, nullptr);
  TrafficGenerator generator(config, small_telescope(),
                             enrich::InternetRegistry::synthetic_default());
  std::unordered_set<std::uint16_t> ports;
  (void)generator.run([&](const net::RawFrame& frame) {
    const auto decoded = net::decode_frame(frame.bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(censys->prefix.contains(decoded->ip.source));
    ports.insert(decoded->tcp()->destination_port);
  });
  EXPECT_GT(ports.size(), 50u);
  EXPECT_LE(ports.size(), 500u);
}

TEST(TrafficGenerator, UnknownOrganizationThrows) {
  auto config = tiny_config();
  GroupSpec bad;
  bad.name = "inst:nope";
  bad.organization = "No Such Org";
  config.groups.push_back(bad);
  EXPECT_THROW(TrafficGenerator(config, small_telescope(),
                                enrich::InternetRegistry::synthetic_default()),
               std::invalid_argument);
}

TEST(TrafficGenerator, EventCampaignsClusterAfterDisclosure) {
  auto config = tiny_config();
  config.groups.clear();
  config.noise_sources = 0;
  config.backscatter_fraction = 0.0;
  config.window_days = 10;
  EventSpec event;
  event.name = "cve-test";
  event.port = 9999;
  event.day = 3.0;
  event.surge_campaigns = 30;
  event.decay_days = 1.0;
  event.hits_median = 200;
  config.events.push_back(event);

  TrafficGenerator generator(config, small_telescope(),
                             enrich::InternetRegistry::synthetic_default());
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  (void)generator.run([&](const net::RawFrame& frame) {
    const auto decoded = net::decode_frame(frame.bytes);
    if (decoded->tcp()->destination_port != 9999) return;
    (frame.timestamp_us < 3 * net::kMicrosPerDay ? before : after) += 1;
  });
  EXPECT_EQ(before, 0u);
  EXPECT_GT(after, 1000u);
}

}  // namespace
}  // namespace synscan::simgen
