// The sensor rule (§3.2), case by case, on the program's one classifier:
// each frame goes alone through a `core::FrameBatcher`.
#include "telescope/sensor.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/ingest.h"
#include "test_support.h"

namespace synscan::telescope {
namespace {

/// Each sensor counter with the class it counts.
constexpr std::pair<std::uint64_t SensorCounters::*, FrameClass> kClassCounters[] = {
    {&SensorCounters::scan_probes, FrameClass::kScanProbe},
    {&SensorCounters::backscatter, FrameClass::kBackscatter},
    {&SensorCounters::xmas_or_null, FrameClass::kXmasOrNull},
    {&SensorCounters::other_tcp, FrameClass::kOtherTcp},
    {&SensorCounters::udp, FrameClass::kUdp},
    {&SensorCounters::icmp, FrameClass::kIcmp},
    {&SensorCounters::not_monitored, FrameClass::kNotMonitored},
    {&SensorCounters::ingress_blocked, FrameClass::kIngressBlocked},
    {&SensorCounters::malformed, FrameClass::kMalformed},
    {&SensorCounters::spoofed_source, FrameClass::kSpoofedSource},
};

class SensorTest : public ::testing::Test {
 protected:
  SensorTest()
      : telescope_({{*net::Ipv4Prefix::parse("203.0.113.0/24"), 1000}},
                   {{23, 1000 * net::kMicrosPerSecond}}),
        batcher_(telescope_, [this](const ProbeBatch& batch) {
          if (!batch.empty()) probe_ = batch.get(0);
        }) {}

  /// Pushes one frame and delivers it as a batch of its own. Returns the
  /// class whose counter it moved; `probe_` holds its probe, if any.
  FrameClass classify(net::TimeUs t, std::vector<std::uint8_t> bytes) {
    const auto before = counters_;
    batcher_.push({t, std::move(bytes)});
    counters_ = batcher_.finish();
    EXPECT_EQ(counters_.total(), before.total() + 1);
    for (const auto& [counter, frame_class] : kClassCounters) {
      if (counters_.*counter != before.*counter) return frame_class;
    }
    ADD_FAILURE() << "no sensor counter moved";
    return FrameClass::kMalformed;
  }

  net::Ipv4Address dark_dst() { return net::Ipv4Address::from_octets(203, 0, 113, 7); }
  net::Ipv4Address src() { return net::Ipv4Address::from_octets(93, 184, 216, 34); }

  Telescope telescope_;
  core::FrameBatcher batcher_;
  SensorCounters counters_;
  ScanProbe probe_;
};

TEST_F(SensorTest, AcceptsSynProbe) {
  EXPECT_EQ(classify(5, testing::syn_frame(src(), dark_dst(), 80)), FrameClass::kScanProbe);
  EXPECT_EQ(probe_.source, src());
  EXPECT_EQ(probe_.destination, dark_dst());
  EXPECT_EQ(probe_.destination_port, 80);
  EXPECT_EQ(probe_.timestamp_us, 5);
  EXPECT_EQ(counters_.scan_probes, 1u);
}

TEST_F(SensorTest, SynAckIsBackscatter) {
  const auto flags =
      net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck);
  EXPECT_EQ(classify(5, testing::syn_frame(src(), dark_dst(), 80, flags)),
            FrameClass::kBackscatter);
  EXPECT_EQ(counters_.backscatter, 1u);
}

TEST_F(SensorTest, RstIsBackscatter) {
  EXPECT_EQ(classify(5, testing::syn_frame(src(), dark_dst(), 80,
                                           net::flag_bit(net::TcpFlag::kRst))),
            FrameClass::kBackscatter);
}

TEST_F(SensorTest, XmasAndNullAreCountedSeparately) {
  EXPECT_EQ(classify(1, testing::syn_frame(src(), dark_dst(), 80, 0x3f)),
            FrameClass::kXmasOrNull);
  EXPECT_EQ(classify(2, testing::syn_frame(src(), dark_dst(), 80, 0x00)),
            FrameClass::kXmasOrNull);
  EXPECT_EQ(counters_.xmas_or_null, 2u);
}

TEST_F(SensorTest, FinScanIsOtherTcp) {
  EXPECT_EQ(classify(1, testing::syn_frame(src(), dark_dst(), 80,
                                           net::flag_bit(net::TcpFlag::kFin))),
            FrameClass::kOtherTcp);
}

TEST_F(SensorTest, NonMonitoredDestinationIgnored) {
  EXPECT_EQ(classify(1, testing::syn_frame(src(),
                                           net::Ipv4Address::from_octets(203, 0, 114, 7), 80)),
            FrameClass::kNotMonitored);
}

TEST_F(SensorTest, IngressBlockAppliesAfterEffectiveDate) {
  const auto bytes = testing::syn_frame(src(), dark_dst(), 23);
  EXPECT_EQ(classify(999 * net::kMicrosPerSecond, bytes), FrameClass::kScanProbe);
  EXPECT_EQ(classify(1001 * net::kMicrosPerSecond, bytes), FrameClass::kIngressBlocked);
  EXPECT_EQ(counters_.ingress_blocked, 1u);
}

TEST_F(SensorTest, SpoofedSourcesRejected) {
  const auto reserved = testing::syn_frame(
      net::Ipv4Address::from_octets(127, 0, 0, 1), dark_dst(), 80);
  EXPECT_EQ(classify(1, reserved), FrameClass::kSpoofedSource);
  const auto private_src = testing::syn_frame(
      net::Ipv4Address::from_octets(192, 168, 1, 1), dark_dst(), 80);
  EXPECT_EQ(classify(1, private_src), FrameClass::kSpoofedSource);
}

TEST_F(SensorTest, UdpAndMalformedCounted) {
  net::UdpFrameSpec udp;
  udp.src_ip = src();
  udp.dst_ip = dark_dst();
  udp.dst_port = 53;
  EXPECT_EQ(classify(1, net::build_udp_frame(udp)), FrameClass::kUdp);

  EXPECT_EQ(classify(1, {1, 2, 3}), FrameClass::kMalformed);
  EXPECT_EQ(counters_.udp, 1u);
  EXPECT_EQ(counters_.malformed, 1u);
}

TEST_F(SensorTest, CountersTotalMatchesFramesFed) {
  for (int i = 0; i < 7; ++i) {
    (void)classify(i, testing::syn_frame(src(), dark_dst(), 80));
  }
  (void)classify(99, {0xff});
  EXPECT_EQ(counters_.total(), 8u);
  EXPECT_EQ(batcher_.frames(), 8u);
  // A fresh batcher starts from zero.
  core::FrameBatcher fresh(telescope_, [](const ProbeBatch&) {});
  EXPECT_EQ(fresh.finish().total(), 0u);
}

TEST_F(SensorTest, ProbeCarriesFingerprintFields) {
  net::TcpFrameSpec spec;
  spec.src_ip = src();
  spec.dst_ip = dark_dst();
  spec.src_port = 4444;
  spec.dst_port = 8080;
  spec.sequence = 0xfeedface;
  spec.ip_id = 54321;
  spec.window = 2048;
  spec.ttl = 57;
  EXPECT_EQ(classify(1, net::build_tcp_frame(spec)), FrameClass::kScanProbe);
  EXPECT_EQ(probe_.sequence, 0xfeedface);
  EXPECT_EQ(probe_.ip_id, 54321);
  EXPECT_EQ(probe_.window, 2048);
  EXPECT_EQ(probe_.ttl, 57);
  EXPECT_EQ(probe_.source_port, 4444);
}

}  // namespace
}  // namespace synscan::telescope
