#include "core/port_tally.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace synscan::core {
namespace {

using synscan::testing::ProbeBuilder;

net::Ipv4Address src(std::uint32_t i) { return net::Ipv4Address(0x05000000u + i); }

TEST(PortTally, CountsPacketsPerPort) {
  PortTally tally;
  for (int i = 0; i < 7; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(80));
  for (int i = 0; i < 3; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(443));
  EXPECT_EQ(tally.total_packets(), 10u);
  EXPECT_EQ(tally.packets_on_port(80), 7u);
  EXPECT_EQ(tally.packets_on_port(443), 3u);
  EXPECT_EQ(tally.packets_on_port(22), 0u);
}

TEST(PortTally, TopPortsByPacketsOrderedWithShares) {
  PortTally tally;
  for (int i = 0; i < 6; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(22));
  for (int i = 0; i < 3; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(80));
  for (int i = 0; i < 1; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(443));
  const auto top = tally.top_ports_by_packets(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].port, 22);
  EXPECT_DOUBLE_EQ(top[0].share, 0.6);
  EXPECT_EQ(top[1].port, 80);
  EXPECT_DOUBLE_EQ(top[1].share, 0.3);
}

TEST(PortTally, SourcesCountedOncePerPort) {
  PortTally tally;
  for (int i = 0; i < 5; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(80));
  tally.on_probe(ProbeBuilder().from(src(2)).port(80));
  EXPECT_EQ(tally.sources_on_port(80), 2u);
  EXPECT_EQ(tally.total_sources(), 2u);
}

TEST(PortTally, SourceScanningTwoPortsCountsForBoth) {
  PortTally tally;
  tally.on_probe(ProbeBuilder().from(src(1)).port(80));
  tally.on_probe(ProbeBuilder().from(src(1)).port(8080));
  const auto top = tally.top_ports_by_sources(5);
  ASSERT_EQ(top.size(), 2u);
  // Shares use total distinct sources as denominator (paper convention),
  // so both ports report 100%.
  EXPECT_DOUBLE_EQ(top[0].share, 1.0);
  EXPECT_DOUBLE_EQ(top[1].share, 1.0);
}

TEST(PortTally, PortsPerSourceSample) {
  PortTally tally;
  tally.on_probe(ProbeBuilder().from(src(1)).port(80));
  tally.on_probe(ProbeBuilder().from(src(2)).port(80));
  tally.on_probe(ProbeBuilder().from(src(2)).port(443));
  tally.on_probe(ProbeBuilder().from(src(2)).port(8080));
  auto sample = tally.ports_per_source_sample();
  std::sort(sample.begin(), sample.end());
  ASSERT_EQ(sample.size(), 2u);
  EXPECT_DOUBLE_EQ(sample[0], 1.0);
  EXPECT_DOUBLE_EQ(sample[1], 3.0);
}

TEST(PortTally, CoScanFraction) {
  PortTally tally;
  // Three sources scan 80; two of them also scan 8080.
  tally.on_probe(ProbeBuilder().from(src(1)).port(80));
  tally.on_probe(ProbeBuilder().from(src(2)).port(80));
  tally.on_probe(ProbeBuilder().from(src(2)).port(8080));
  tally.on_probe(ProbeBuilder().from(src(3)).port(80));
  tally.on_probe(ProbeBuilder().from(src(3)).port(8080));
  EXPECT_NEAR(tally.co_scan_fraction(80, 8080), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(tally.co_scan_fraction(8080, 80), 1.0);
  EXPECT_EQ(tally.co_scan_fraction(22, 80), 0.0);
}

TEST(PortTally, PortsWithAtLeast) {
  PortTally tally;
  for (int i = 0; i < 10; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(80));
  for (int i = 0; i < 2; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(443));
  EXPECT_EQ(tally.ports_with_at_least(1), 2u);
  EXPECT_EQ(tally.ports_with_at_least(5), 1u);
  EXPECT_EQ(tally.ports_with_at_least(11), 0u);
}

TEST(PortTally, PrivilegedPortCoverage) {
  PortTally tally;
  // Heavy traffic on 3 privileged ports, nothing else: coverage ~ 3/1023.
  for (const std::uint16_t port : {std::uint16_t{22}, std::uint16_t{80}, std::uint16_t{443}}) {
    for (int i = 0; i < 100; ++i) tally.on_probe(ProbeBuilder().from(src(1)).port(port));
  }
  EXPECT_NEAR(tally.privileged_port_coverage(0.01), 3.0 / 1023.0, 1e-9);
  // Ephemeral traffic does not count toward privileged coverage.
  for (int i = 0; i < 1000; ++i) tally.on_probe(ProbeBuilder().from(src(2)).port(8080));
  EXPECT_NEAR(tally.privileged_port_coverage(0.01), 3.0 / 1023.0, 1e-9);
}

TEST(PortTally, EmptyTally) {
  const PortTally tally;
  EXPECT_EQ(tally.total_packets(), 0u);
  EXPECT_EQ(tally.total_sources(), 0u);
  EXPECT_TRUE(tally.top_ports_by_packets(5).empty());
  EXPECT_EQ(tally.privileged_port_coverage(), 0.0);
  EXPECT_EQ(tally.co_scan_fraction(80, 8080), 0.0);
}

}  // namespace
}  // namespace synscan::core
