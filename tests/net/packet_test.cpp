#include "net/packet.h"

#include <gtest/gtest.h>

#include "net/checksum.h"
#include "reference_decode.h"

namespace synscan::net {
namespace {

TcpFrameSpec sample_spec() {
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address::from_octets(5, 6, 7, 8);
  spec.dst_ip = Ipv4Address::from_octets(198, 51, 1, 2);
  spec.src_port = 54321;
  spec.dst_port = 443;
  spec.sequence = 0xabad1dea;
  spec.ip_id = 4242;
  return spec;
}

TEST(BuildTcpFrame, ProducesDecodableFrame) {
  const auto frame = build_tcp_frame(sample_spec());
  ASSERT_EQ(frame.size(),
            EthernetHeader::kSize + Ipv4Header::kMinSize + TcpHeader::kMinSize);

  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ip.source.to_string(), "5.6.7.8");
  EXPECT_EQ(decoded->ip.destination.to_string(), "198.51.1.2");
  ASSERT_NE(decoded->tcp(), nullptr);
  EXPECT_EQ(decoded->tcp()->destination_port, 443);
  EXPECT_EQ(decoded->tcp()->sequence, 0xabad1dea);
  EXPECT_TRUE(decoded->tcp()->is_syn_probe());
  EXPECT_EQ(decoded->ip.identification, 4242);
  EXPECT_EQ(decoded->payload_length, 0u);
}

TEST(BuildTcpFrame, ChecksumsAreValid) {
  const auto frame = build_tcp_frame(sample_spec());
  EXPECT_TRUE(verify_tcp_checksum(frame));
  // And the IP header checksum folds to zero.
  const std::span<const std::uint8_t> ip_bytes{frame.data() + EthernetHeader::kSize,
                                               Ipv4Header::kMinSize};
  EXPECT_EQ(internet_checksum(ip_bytes), 0);
}

TEST(BuildTcpFrame, CorruptionBreaksChecksumVerification) {
  auto frame = build_tcp_frame(sample_spec());
  frame[EthernetHeader::kSize + Ipv4Header::kMinSize + 4] ^= 0x40;  // seq bit
  EXPECT_FALSE(verify_tcp_checksum(frame));
}

TEST(BuildTcpFrame, PayloadIncludedInLengthAndChecksum) {
  auto spec = sample_spec();
  spec.payload = {1, 2, 3, 4, 5};
  const auto frame = build_tcp_frame(spec);
  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload_length, 5u);
  EXPECT_TRUE(verify_tcp_checksum(frame));
}

TEST(BuildUdpFrame, ProducesDecodableFrame) {
  UdpFrameSpec spec;
  spec.src_ip = Ipv4Address::from_octets(9, 9, 9, 9);
  spec.dst_ip = Ipv4Address::from_octets(198, 51, 0, 1);
  spec.src_port = 53;
  spec.dst_port = 123;
  spec.payload = {0xde, 0xad};
  const auto frame = build_udp_frame(spec);
  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_NE(decoded->udp(), nullptr);
  EXPECT_EQ(decoded->udp()->destination_port, 123);
  EXPECT_EQ(decoded->payload_length, 2u);
}

TEST(DecodeFrame, RejectsNonIpv4EtherType) {
  auto frame = build_tcp_frame(sample_spec());
  frame[12] = 0x86;  // IPv6 EtherType
  frame[13] = 0xdd;
  EXPECT_FALSE(decode_frame(frame).has_value());
}

TEST(DecodeFrame, RejectsTruncatedIpHeader) {
  auto frame = build_tcp_frame(sample_spec());
  frame.resize(EthernetHeader::kSize + 10);
  EXPECT_FALSE(decode_frame(frame).has_value());
}

TEST(DecodeFrame, TruncatedTransportDecodesWithEmptyTransport) {
  auto frame = build_tcp_frame(sample_spec());
  // Keep the IP header but cut into the TCP header. total_length still
  // claims a full segment; available bytes rule.
  frame.resize(EthernetHeader::kSize + Ipv4Header::kMinSize + 8);
  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->tcp(), nullptr);
}

TEST(DecodeFrame, LaterFragmentHasNoTransport) {
  auto spec = sample_spec();
  auto frame = build_tcp_frame(spec);
  // Rewrite fragment offset to non-zero and fix the IP checksum.
  auto* ip = frame.data() + EthernetHeader::kSize;
  ip[6] = 0x00;
  ip[7] = 0x10;  // offset 16 (x8 bytes)
  ip[10] = 0;
  ip[11] = 0;
  const auto checksum = internet_checksum({ip, Ipv4Header::kMinSize});
  ip[10] = static_cast<std::uint8_t>(checksum >> 8);
  ip[11] = static_cast<std::uint8_t>(checksum & 0xff);

  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->ip.is_later_fragment());
  EXPECT_EQ(decoded->tcp(), nullptr);
}

TEST(DecodeFrame, EthernetPaddingIsIgnored) {
  auto frame = build_tcp_frame(sample_spec());
  frame.resize(frame.size() + 6, 0);  // trailing pad below 64-byte minimum
  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_NE(decoded->tcp(), nullptr);
  EXPECT_EQ(decoded->payload_length, 0u);
}

TEST(DecodeFrame, UnknownIpProtocolDecodesWithEmptyTransport) {
  auto frame = build_tcp_frame(sample_spec());
  auto* ip = frame.data() + EthernetHeader::kSize;
  ip[9] = 47;  // GRE
  ip[10] = 0;
  ip[11] = 0;
  const auto checksum = internet_checksum({ip, Ipv4Header::kMinSize});
  ip[10] = static_cast<std::uint8_t>(checksum >> 8);
  ip[11] = static_cast<std::uint8_t>(checksum & 0xff);
  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->tcp(), nullptr);
  EXPECT_EQ(decoded->udp(), nullptr);
  EXPECT_EQ(decoded->icmp(), nullptr);
}

}  // namespace
}  // namespace synscan::net
