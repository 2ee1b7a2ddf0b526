// Differential test: the flat-table campaign tracker against the
// std-container reference implementation (tests/core/reference_tracker.h)
// on identical probe streams — including expiry-reset, sweep, promotion,
// and stream-end paths — plus serial-vs-parallel merge determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/pipeline.h"
#include "core/tracker.h"
#include "reference_tracker.h"
#include "simgen/generator.h"
#include "simgen/rng.h"
#include "telescope/sensor.h"
#include "test_support.h"

namespace synscan::core {
namespace {

constexpr std::uint64_t kTelescopeSize = 71536;

std::vector<std::pair<std::uint16_t, std::uint64_t>> sorted_ports(
    const PortPacketMap& map) {
  std::vector<std::pair<std::uint16_t, std::uint64_t>> rows(map.begin(), map.end());
  std::sort(rows.begin(), rows.end());
  return rows;
}

void sort_campaigns(std::vector<Campaign>& campaigns) {
  std::sort(campaigns.begin(), campaigns.end(), [](const Campaign& a, const Campaign& b) {
    if (a.first_seen_us != b.first_seen_us) return a.first_seen_us < b.first_seen_us;
    if (a.source != b.source) return a.source < b.source;
    return a.last_seen_us < b.last_seen_us;
  });
}

/// Field-by-field equality, ignoring `id`: the two implementations close
/// flows in different table orders, so ids are not comparable — the sets
/// must be.
void expect_identical(std::vector<Campaign> actual, std::vector<Campaign> expected) {
  sort_campaigns(actual);
  sort_campaigns(expected);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual[i];
    const auto& e = expected[i];
    EXPECT_EQ(a.source, e.source) << "campaign " << i;
    EXPECT_EQ(a.first_seen_us, e.first_seen_us) << "campaign " << i;
    EXPECT_EQ(a.last_seen_us, e.last_seen_us) << "campaign " << i;
    EXPECT_EQ(a.packets, e.packets) << "campaign " << i;
    EXPECT_EQ(a.distinct_destinations, e.distinct_destinations) << "campaign " << i;
    EXPECT_EQ(sorted_ports(a.port_packets), sorted_ports(e.port_packets))
        << "campaign " << i;
    EXPECT_EQ(a.tool, e.tool) << "campaign " << i;
    EXPECT_DOUBLE_EQ(a.extrapolated_pps, e.extrapolated_pps) << "campaign " << i;
    EXPECT_DOUBLE_EQ(a.extrapolated_packets, e.extrapolated_packets) << "campaign " << i;
    EXPECT_DOUBLE_EQ(a.coverage_fraction, e.coverage_fraction) << "campaign " << i;
  }
}

void expect_identical_counters(const TrackerCounters& actual,
                               const TrackerCounters& expected) {
  EXPECT_EQ(actual.probes, expected.probes);
  EXPECT_EQ(actual.campaigns, expected.campaigns);
  EXPECT_EQ(actual.subthreshold_flows, expected.subthreshold_flows);
  EXPECT_EQ(actual.subthreshold_packets, expected.subthreshold_packets);
  EXPECT_EQ(actual.expired_flows, expected.expired_flows);
  EXPECT_EQ(actual.sweeps, expected.sweeps);
  EXPECT_EQ(actual.peak_open_flows, expected.peak_open_flows);
}

void run_differential(const std::vector<telescope::ScanProbe>& probes,
                      TrackerConfig config) {
  std::vector<Campaign> flat_campaigns;
  CampaignTracker flat(config, kTelescopeSize,
                       [&](Campaign&& c) { flat_campaigns.push_back(std::move(c)); });
  std::vector<Campaign> ref_campaigns;
  testing::ReferenceTracker reference(
      config, kTelescopeSize,
      [&](Campaign&& c) { ref_campaigns.push_back(std::move(c)); });

  for (const auto& probe : probes) {
    flat.feed(probe);
    reference.feed(probe);
  }
  flat.finish();
  reference.finish();

  expect_identical(std::move(flat_campaigns), std::move(ref_campaigns));
  expect_identical_counters(flat.counters(), reference.counters());
}

/// Mixed adversarial stream: a sparse noise floor (flows that expire and
/// whose table slots churn), heavy horizontal scanners (destination-set
/// promotion), vertical scanners (port-map promotion), duplicate
/// destinations, and quiet gaps that force sweeps and same-source scan
/// restarts.
std::vector<telescope::ScanProbe> adversarial_stream(std::uint64_t count,
                                                     std::uint64_t seed) {
  simgen::Rng rng(seed);
  std::vector<telescope::ScanProbe> probes;
  probes.reserve(count);
  net::TimeUs now = 0;
  std::uint16_t vertical_port = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i > 0 && i % (count / 6 + 1) == 0) now += 3 * net::kMicrosPerHour;
    now += 200;
    telescope::ScanProbe probe;
    probe.timestamp_us = now;
    probe.ttl = 64;
    probe.window = 1024;
    probe.source_port = static_cast<std::uint16_t>(1024 + rng.uniform(60000));
    const auto draw = rng.uniform(100);
    if (draw < 60) {
      probe.source = net::Ipv4Address(0x0a000000u + rng.next_u32() % 5000);
      probe.destination = net::Ipv4Address(0xc6330000u + rng.next_u32() % 64);
      probe.destination_port = static_cast<std::uint16_t>(rng.uniform(4) == 0 ? 23 : 80);
    } else if (draw < 90) {
      probe.source = net::Ipv4Address(0x05050000u + rng.next_u32() % 24);
      probe.destination = net::Ipv4Address(0xc6330000u + rng.next_u32() % 8192);
      probe.destination_port = 443;
    } else {
      probe.source = net::Ipv4Address(0x07070000u + rng.next_u32() % 4);
      probe.destination = net::Ipv4Address(0xc6330000u + rng.next_u32() % 16);
      probe.destination_port = ++vertical_port;
    }
    // A zero destination now and then exercises the hybrid set's
    // zero-value side flag.
    if (rng.uniform(997) == 0) probe.destination = net::Ipv4Address(0);
    probes.push_back(probe);
  }
  return probes;
}

TEST(TrackerDifferential, AdversarialMixMatchesReference) {
  TrackerConfig config;
  config.sweep_interval = 1 << 12;  // frequent sweeps
  run_differential(adversarial_stream(120000, 97), config);
}

TEST(TrackerDifferential, TinySweepIntervalMatchesReference) {
  // Sweep every 64 probes: the erase/backward-shift path runs thousands
  // of times over a churning table.
  TrackerConfig config;
  config.sweep_interval = 64;
  config.expiry = 30 * net::kMicrosPerMinute;
  run_differential(adversarial_stream(30000, 1234), config);
}

TEST(TrackerDifferential, ExpiryRestartMatchesReference) {
  // Same sources bursting, going quiet past expiry, bursting again —
  // the in-place flow-reset path — with destination counts straddling
  // the promotion threshold on the second run.
  std::vector<telescope::ScanProbe> probes;
  net::TimeUs now = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t s = 0; s < 40; ++s) {
      const auto dests = 5 + s * 7;  // 5..278: below and above inline/threshold
      for (std::uint32_t d = 0; d < dests; ++d) {
        probes.push_back(synscan::testing::ProbeBuilder()
                             .from(net::Ipv4Address(0x09000000u + s))
                             .to(net::Ipv4Address(0xc6330000u + d))
                             .port(static_cast<std::uint16_t>(80 + (d % 12)))
                             .at(now + d * 1000));
      }
    }
    now += 3 * net::kMicrosPerHour;  // everyone expires; next round restarts
  }
  std::sort(probes.begin(), probes.end(), [](const auto& a, const auto& b) {
    return a.timestamp_us < b.timestamp_us;
  });
  run_differential(probes, TrackerConfig{});
}

TEST(TrackerDifferential, SimulatedWindowMatchesReference) {
  // A full simgen window through the real sensor: the closest thing to
  // replaying a capture through both implementations.
  const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {});
  simgen::YearConfig config;
  config.year = 2021;
  config.window_days = 1;
  config.seed = 20240806;
  config.port_table = {{80, 40}, {443, 30}, {23, 30}};
  config.noise_sources = 200;
  config.backscatter_fraction = 0.1;
  simgen::GroupSpec group;
  group.name = "diff-group";
  group.tool = simgen::WireTool::kZmap;
  group.pool = enrich::ScannerType::kHosting;
  group.sources = 6;
  group.campaigns = 6;
  group.hits_median = 400;
  group.hits_sigma = 1.2;
  group.pps_median = 500000;
  group.pps_sigma = 1.1;
  config.groups.push_back(group);

  telescope::Sensor sensor(telescope);
  std::vector<telescope::ScanProbe> probes;
  simgen::TrafficGenerator generator(config, telescope,
                                     enrich::InternetRegistry::synthetic_default());
  generator.run([&](const net::RawFrame& frame) {
    telescope::ScanProbe probe;
    if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
      probes.push_back(probe);
    }
  });
  ASSERT_GT(probes.size(), 1000u);

  TrackerConfig tracker_config;
  tracker_config.sweep_interval = 1 << 10;
  run_differential(probes, tracker_config);
}

TEST(TrackerDifferential, SerialAndParallelMergeDeterministic) {
  // The same simulated window through the per-frame serial reference and
  // through 1/2/4-worker parallel analyzers fed in batches: identical
  // campaign sets, and the
  // parallel merges bit-identical to each other (deterministic order and
  // ids regardless of worker count).
  const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {});
  simgen::YearConfig config;
  config.year = 2022;
  config.window_days = 1;
  config.seed = 777;
  config.port_table = {{80, 60}, {443, 40}};
  config.noise_sources = 100;
  config.backscatter_fraction = 0.05;
  simgen::GroupSpec group;
  group.name = "par-group";
  group.tool = simgen::WireTool::kMasscan;
  group.pool = enrich::ScannerType::kHosting;
  group.sources = 5;
  group.campaigns = 5;
  group.hits_median = 300;
  group.hits_sigma = 1.2;
  group.pps_median = 400000;
  group.pps_sigma = 1.1;
  config.groups.push_back(group);

  std::vector<net::RawFrame> frames;
  simgen::TrafficGenerator generator(config, telescope,
                                     enrich::InternetRegistry::synthetic_default());
  generator.run([&](const net::RawFrame& frame) { frames.push_back(frame); });

  Pipeline serial(telescope);
  testing::feed_per_frame(serial, telescope, frames);
  auto serial_result = serial.finish();

  std::vector<PipelineResult> parallel_results;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Pipeline analyzer(telescope, workers);
    testing::feed_batched(analyzer, telescope, frames);
    parallel_results.push_back(analyzer.finish());
  }

  for (auto& result : parallel_results) {
    expect_identical(result.campaigns, serial_result.campaigns);
    EXPECT_EQ(result.tracker.probes, serial_result.tracker.probes);
    EXPECT_EQ(result.tracker.campaigns, serial_result.tracker.campaigns);
    EXPECT_EQ(result.tracker.subthreshold_flows,
              serial_result.tracker.subthreshold_flows);
    EXPECT_EQ(result.tracker.subthreshold_packets,
              serial_result.tracker.subthreshold_packets);
  }
  // Merge determinism: identical order and ids across worker counts.
  for (std::size_t r = 1; r < parallel_results.size(); ++r) {
    const auto& a = parallel_results[0].campaigns;
    const auto& b = parallel_results[r].campaigns;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].source, b[i].source);
      EXPECT_EQ(a[i].first_seen_us, b[i].first_seen_us);
      EXPECT_EQ(a[i].packets, b[i].packets);
    }
  }
}

}  // namespace
}  // namespace synscan::core
