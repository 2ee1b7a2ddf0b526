#include "simgen/wire.h"

#include <gtest/gtest.h>

#include "fingerprint/matchers.h"
#include "reference_decode.h"
#include "simgen/rng.h"

namespace synscan::simgen {
namespace {

net::TcpFrameSpec craft(WireState& wire, std::uint32_t dst, std::uint16_t port) {
  net::TcpFrameSpec spec;
  wire.craft(spec, net::Ipv4Address(dst), port);
  return spec;
}

TEST(WireState, ZmapStampsIpIdAndKeepsSourcePort) {
  WireState wire(WireTool::kZmap, Rng(1));
  const auto a = craft(wire, 0x01020304, 80);
  const auto b = craft(wire, 0x0a0b0c0d, 443);
  EXPECT_EQ(a.ip_id, fingerprint::kZmapIpId);
  EXPECT_EQ(b.ip_id, fingerprint::kZmapIpId);
  EXPECT_EQ(a.src_port, b.src_port);  // per-invocation fixed source port
  EXPECT_NE(a.sequence, b.sequence);
}

TEST(WireState, ZmapStealthRandomizesIpId) {
  WireState wire(WireTool::kZmapStealth, Rng(2));
  int marked = 0;
  for (int i = 0; i < 300; ++i) {
    if (craft(wire, 0x01020304u + static_cast<std::uint32_t>(i), 80).ip_id ==
        fingerprint::kZmapIpId) {
      ++marked;
    }
  }
  EXPECT_LE(marked, 1);
}

TEST(WireState, MasscanSatisfiesItsRelation) {
  WireState wire(WireTool::kMasscan, Rng(3));
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t dst = 0xc0000200u + static_cast<std::uint32_t>(i);
    const auto port = static_cast<std::uint16_t>(1 + i * 7);
    const auto spec = craft(wire, dst, port);
    EXPECT_EQ(spec.ip_id, fingerprint::masscan_ip_id(dst, port, spec.sequence));
  }
}

TEST(WireState, MiraiSequenceEqualsDestination) {
  WireState wire(WireTool::kMirai, Rng(4));
  for (int i = 0; i < 50; ++i) {
    const std::uint32_t dst = 0xc0000200u + static_cast<std::uint32_t>(i * 13);
    EXPECT_EQ(craft(wire, dst, 23).sequence, dst);
  }
}

TEST(WireState, MiraiVariesSourcePort) {
  WireState wire(WireTool::kMirai, Rng(5));
  const auto a = craft(wire, 1, 23).src_port;
  const auto b = craft(wire, 2, 23).src_port;
  const auto c = craft(wire, 3, 23).src_port;
  EXPECT_TRUE(a != b || b != c);
}

TEST(WireState, NmapSequencesSatisfyPairRelation) {
  WireState wire(WireTool::kNmap, Rng(6));
  const auto first = craft(wire, 100, 22).sequence;
  for (int i = 0; i < 100; ++i) {
    const auto seq = craft(wire, 200u + static_cast<std::uint32_t>(i), 22).sequence;
    EXPECT_TRUE(fingerprint::matches_nmap_pair(first, seq));
  }
}

TEST(WireState, NmapSessionsUseDifferentSecrets) {
  WireState session1(WireTool::kNmap, Rng(7));
  WireState session2(WireTool::kNmap, Rng(8));
  // Sequences from different sessions usually break the relation.
  int cross_matches = 0;
  for (int i = 0; i < 100; ++i) {
    const auto a = craft(session1, 1, 22).sequence;
    const auto b = craft(session2, 1, 22).sequence;
    if (fingerprint::matches_nmap_pair(a, b)) ++cross_matches;
  }
  EXPECT_LT(cross_matches, 3);
}

TEST(WireState, UnicornSatisfiesPairRelation) {
  WireState wire(WireTool::kUnicorn, Rng(9));
  net::TcpFrameSpec previous;
  bool have_previous = false;
  for (int i = 0; i < 100; ++i) {
    net::TcpFrameSpec spec;
    const net::Ipv4Address dst(0xcb000000u + static_cast<std::uint32_t>(i * 31));
    const auto port = static_cast<std::uint16_t>(1 + i * 3);
    wire.craft(spec, dst, port);
    if (have_previous) {
      const std::uint32_t lhs = previous.sequence ^ spec.sequence;
      const std::uint32_t rhs =
          (previous.dst_ip.value() ^ spec.dst_ip.value()) ^
          static_cast<std::uint32_t>(previous.src_port ^ spec.src_port) ^
          (static_cast<std::uint32_t>(previous.dst_port ^ spec.dst_port) << 16);
      EXPECT_EQ(lhs, rhs) << i;
    }
    previous = spec;
    have_previous = true;
  }
}

TEST(WireState, AllToolsSetSynFlagAndTargets) {
  Rng rng(10);
  for (const auto tool :
       {WireTool::kZmap, WireTool::kZmapStealth, WireTool::kMasscan,
        WireTool::kMasscanStealth, WireTool::kMirai, WireTool::kNmap, WireTool::kUnicorn,
        WireTool::kCustom}) {
    WireState wire(tool, rng.fork(static_cast<std::uint64_t>(tool)));
    const auto spec = craft(wire, 0x12345678, 8080);
    EXPECT_EQ(spec.flags, net::flag_bit(net::TcpFlag::kSyn));
    EXPECT_EQ(spec.dst_ip.value(), 0x12345678u);
    EXPECT_EQ(spec.dst_port, 8080);
    EXPECT_GE(spec.ttl, 48);
  }
}

TEST(WireState, BuiltFramesAreValidOnTheWire) {
  Rng rng(11);
  WireState wire(WireTool::kMasscan, rng.fork(1));
  net::TcpFrameSpec spec;
  spec.src_ip = net::Ipv4Address::from_octets(5, 5, 5, 5);
  wire.craft(spec, net::Ipv4Address::from_octets(198, 51, 0, 1), 443);
  const auto frame = net::build_tcp_frame(spec);
  EXPECT_TRUE(net::verify_tcp_checksum(frame));
  const auto decoded = net::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->tcp()->is_syn_probe());
}

}  // namespace
}  // namespace synscan::simgen
