// Unit-level pipeline coverage (the integration suite covers the
// generator-driven paths; these pin the direct API behaviors).
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <span>

#include "test_support.h"

namespace synscan::core {
namespace {

const telescope::Telescope& tiny_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("203.0.113.0/24"), 1000}}, {});
  return telescope;
}

TEST(Pipeline, FinishIsTerminalAndMovesCampaigns) {
  Pipeline pipeline(tiny_telescope());
  for (int i = 0; i < 150; ++i) {
    pipeline.feed_probe(testing::ProbeBuilder()
                            .from(net::Ipv4Address::from_octets(9, 9, 9, 9))
                            .to(net::Ipv4Address(0xcb007100u + static_cast<std::uint32_t>(i)))
                            .at(i * net::kMicrosPerSecond));
  }
  const auto first = pipeline.finish();
  EXPECT_EQ(first.campaigns.size(), 1u);
  // A second finish on the drained pipeline yields nothing new.
  const auto second = pipeline.finish();
  EXPECT_TRUE(second.campaigns.empty());
}

TEST(Pipeline, ObserversRunBeforeTracker) {
  // The observer must see probes even for flows that later qualify; the
  // simplest detectable property: observer count equals tracker count.
  struct Counter final : ProbeObserver {
    void on_probe(const telescope::ScanProbe&) override { ++count; }
    std::uint64_t count = 0;
  } counter;

  Pipeline pipeline(tiny_telescope());
  pipeline.add_observer(counter);
  for (int i = 0; i < 25; ++i) {
    pipeline.feed_probe(testing::ProbeBuilder().at(i));
  }
  const auto result = pipeline.finish();
  EXPECT_EQ(counter.count, 25u);
  EXPECT_EQ(result.tracker.probes, 25u);
}

TEST(Pipeline, MultipleObserversAllInvoked) {
  struct Counter final : ProbeObserver {
    void on_probe(const telescope::ScanProbe&) override { ++count; }
    std::uint64_t count = 0;
  } a, b, c;

  Pipeline pipeline(tiny_telescope());
  pipeline.add_observer(a);
  pipeline.add_observer(b);
  pipeline.add_observer(c);
  pipeline.feed_probe(testing::ProbeBuilder().at(1));
  (void)pipeline.finish();
  EXPECT_EQ(a.count, 1u);
  EXPECT_EQ(b.count, 1u);
  EXPECT_EQ(c.count, 1u);
}

TEST(Pipeline, NonProbeFramesDoNotReachObservers) {
  struct Counter final : ProbeObserver {
    void on_probe(const telescope::ScanProbe&) override { ++count; }
    std::uint64_t count = 0;
  } counter;

  Pipeline pipeline(tiny_telescope());
  pipeline.add_observer(counter);
  // A RST (backscatter) frame to a monitored address.
  const net::RawFrame frame{
      5, testing::syn_frame(net::Ipv4Address::from_octets(9, 9, 9, 9),
                            net::Ipv4Address::from_octets(203, 0, 113, 7), 80,
                            net::flag_bit(net::TcpFlag::kRst))};
  testing::feed_batched(pipeline, tiny_telescope(), std::span(&frame, 1));
  EXPECT_EQ(counter.count, 0u);
  const auto result = pipeline.finish();
  EXPECT_EQ(result.sensor.backscatter, 1u);
  EXPECT_EQ(result.tracker.probes, 0u);
}

}  // namespace
}  // namespace synscan::core
