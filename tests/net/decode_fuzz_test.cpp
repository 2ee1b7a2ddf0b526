// Robustness sweeps: the reference decoder and the program's classifier
// must never misbehave on arbitrary bytes — a telescope parses billions
// of untrusted frames.
#include <gtest/gtest.h>

#include "core/ingest.h"
#include "net/packet.h"
#include "reference_decode.h"
#include "simgen/rng.h"
#include "telescope/sensor.h"

namespace synscan::net {
namespace {

class DecodeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzzTest, RandomBytesNeverCrashTheDecoder) {
  simgen::Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform(128));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto decoded = decode_frame(bytes);
    if (decoded && decoded->tcp() != nullptr) {
      // Whatever decoded must at least be self-consistent.
      EXPECT_GE(decoded->ip.total_length, decoded->ip.header_length());
      EXPECT_GE(decoded->tcp()->data_offset, 5);
    }
  }
}

TEST_P(DecodeFuzzTest, BitFlippedValidFramesNeverCrash) {
  simgen::Rng rng(GetParam() ^ 0xf1f1);
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address::from_octets(5, 5, 5, 5);
  spec.dst_ip = Ipv4Address::from_octets(198, 51, 0, 1);
  spec.dst_port = 443;
  const auto pristine = build_tcp_frame(spec);
  for (int trial = 0; trial < 2000; ++trial) {
    auto frame = pristine;
    const auto flips = 1 + rng.uniform(8);
    for (std::uint64_t i = 0; i < flips; ++i) {
      frame[rng.uniform(frame.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    (void)decode_frame(frame);
    (void)verify_tcp_checksum(frame);
  }
}

TEST_P(DecodeFuzzTest, TruncationsAtEveryLengthNeverCrash) {
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address::from_octets(5, 5, 5, 5);
  spec.dst_ip = Ipv4Address::from_octets(198, 51, 0, 1);
  spec.dst_port = 80;
  spec.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto full = build_tcp_frame(spec);
  for (std::size_t length = 0; length <= full.size(); ++length) {
    const std::span<const std::uint8_t> prefix(full.data(), length);
    (void)decode_frame(prefix);
  }
}

TEST_P(DecodeFuzzTest, SensorTotalsStayConsistentUnderFuzz) {
  simgen::Rng rng(GetParam() ^ 0x5e50);
  const telescope::Telescope telescope(
      {{*Ipv4Prefix::parse("198.51.0.0/24"), 1000}}, {});
  std::uint64_t probes = 0;
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    probes += batch.size();
  });
  constexpr int kTrials = 3000;
  for (int trial = 0; trial < kTrials; ++trial) {
    net::RawFrame frame;
    frame.timestamp_us = trial;
    frame.bytes.resize(rng.uniform(96));
    for (auto& b : frame.bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    batcher.push(frame);
  }
  const auto& counters = batcher.finish();
  EXPECT_EQ(counters.total(), static_cast<std::uint64_t>(kTrials));
  EXPECT_EQ(batcher.frames(), static_cast<std::uint64_t>(kTrials));
  EXPECT_EQ(probes, counters.scan_probes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest, ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace synscan::net
