#include "net/headers.h"

#include <gtest/gtest.h>

#include "net/checksum.h"
#include "reference_decode.h"
#include "simgen/rng.h"

namespace synscan::net {
namespace {

TEST(Ethernet, EncodeDecodeRoundTrip) {
  EthernetHeader header;
  header.destination = *MacAddress::parse("02:00:00:00:00:01");
  header.source = *MacAddress::parse("02:00:00:00:00:02");
  header.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);

  std::vector<std::uint8_t> bytes;
  encode_ethernet(header, bytes);
  ASSERT_EQ(bytes.size(), EthernetHeader::kSize);

  const auto decoded = decode_ethernet(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->destination, header.destination);
  EXPECT_EQ(decoded->source, header.source);
  EXPECT_TRUE(decoded->is_ipv4());
}

TEST(Ethernet, RejectsShortFrames) {
  const std::vector<std::uint8_t> bytes(EthernetHeader::kSize - 1, 0);
  EXPECT_FALSE(decode_ethernet(bytes).has_value());
}

Ipv4Header sample_ipv4() {
  Ipv4Header header;
  header.total_length = 40;
  header.identification = 54321;
  header.dont_fragment = true;
  header.ttl = 61;
  header.protocol = static_cast<std::uint8_t>(IpProtocol::kTcp);
  header.source = Ipv4Address::from_octets(10, 1, 2, 3);
  header.destination = Ipv4Address::from_octets(198, 51, 7, 9);
  return header;
}

TEST(Ipv4, EncodeDecodeRoundTrip) {
  const auto header = sample_ipv4();
  std::vector<std::uint8_t> bytes;
  encode_ipv4(header, bytes);
  ASSERT_EQ(bytes.size(), Ipv4Header::kMinSize);

  const auto decoded = decode_ipv4(bytes, /*verify_checksum=*/true);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->total_length, header.total_length);
  EXPECT_EQ(decoded->identification, header.identification);
  EXPECT_EQ(decoded->dont_fragment, true);
  EXPECT_EQ(decoded->more_fragments, false);
  EXPECT_EQ(decoded->ttl, header.ttl);
  EXPECT_EQ(decoded->source, header.source);
  EXPECT_EQ(decoded->destination, header.destination);
  EXPECT_TRUE(decoded->is_tcp());
}

TEST(Ipv4, EncodedChecksumValidates) {
  std::vector<std::uint8_t> bytes;
  encode_ipv4(sample_ipv4(), bytes);
  // RFC 1071: header including its checksum folds to zero.
  EXPECT_EQ(internet_checksum(bytes), 0);
}

TEST(Ipv4, DecodeRejectsCorruptedChecksum) {
  std::vector<std::uint8_t> bytes;
  encode_ipv4(sample_ipv4(), bytes);
  bytes[8] ^= 0x01;  // flip a TTL bit
  EXPECT_TRUE(decode_ipv4(bytes, false).has_value());
  EXPECT_FALSE(decode_ipv4(bytes, true).has_value());
}

TEST(Ipv4, DecodeRejectsWrongVersion) {
  std::vector<std::uint8_t> bytes;
  encode_ipv4(sample_ipv4(), bytes);
  bytes[0] = (6u << 4) | 5u;  // IPv6 version nibble
  EXPECT_FALSE(decode_ipv4(bytes).has_value());
}

TEST(Ipv4, DecodeRejectsShortIhl) {
  std::vector<std::uint8_t> bytes;
  encode_ipv4(sample_ipv4(), bytes);
  bytes[0] = (4u << 4) | 4u;  // ihl = 4 words < minimum 5
  EXPECT_FALSE(decode_ipv4(bytes).has_value());
}

TEST(Ipv4, DecodeRejectsTotalLengthBelowHeader) {
  auto header = sample_ipv4();
  header.total_length = 10;
  std::vector<std::uint8_t> bytes;
  encode_ipv4(header, bytes);
  EXPECT_FALSE(decode_ipv4(bytes).has_value());
}

TEST(Ipv4, DecodeRejectsTruncatedInput) {
  std::vector<std::uint8_t> bytes;
  encode_ipv4(sample_ipv4(), bytes);
  bytes.resize(Ipv4Header::kMinSize - 1);
  EXPECT_FALSE(decode_ipv4(bytes).has_value());
}

TEST(Ipv4, OptionsLengthHandled) {
  auto header = sample_ipv4();
  header.ihl = 6;  // 24-byte header with one option word
  header.total_length = 44;
  std::vector<std::uint8_t> bytes;
  encode_ipv4(header, bytes);
  ASSERT_EQ(bytes.size(), 24u);
  const auto decoded = decode_ipv4(bytes, true);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header_length(), 24u);
}

TEST(Ipv4, FragmentFieldsRoundTrip) {
  auto header = sample_ipv4();
  header.dont_fragment = false;
  header.more_fragments = true;
  header.fragment_offset = 0x1234 & 0x1fff;
  std::vector<std::uint8_t> bytes;
  encode_ipv4(header, bytes);
  const auto decoded = decode_ipv4(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->more_fragments);
  EXPECT_EQ(decoded->fragment_offset, header.fragment_offset);
  EXPECT_TRUE(decoded->is_later_fragment());
}

TcpHeader sample_tcp() {
  TcpHeader header;
  header.source_port = 44321;
  header.destination_port = 443;
  header.sequence = 0xdeadbeef;
  header.acknowledgment = 0;
  header.flags = flag_bit(TcpFlag::kSyn);
  header.window = 29200;
  header.checksum = 0x1234;
  return header;
}

TEST(Tcp, EncodeDecodeRoundTrip) {
  const auto header = sample_tcp();
  std::vector<std::uint8_t> bytes;
  encode_tcp(header, bytes);
  ASSERT_EQ(bytes.size(), TcpHeader::kMinSize);

  const auto decoded = decode_tcp(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source_port, header.source_port);
  EXPECT_EQ(decoded->destination_port, header.destination_port);
  EXPECT_EQ(decoded->sequence, header.sequence);
  EXPECT_EQ(decoded->flags, header.flags);
  EXPECT_EQ(decoded->window, header.window);
  EXPECT_EQ(decoded->checksum, header.checksum);
}

TEST(Tcp, SynProbePredicate) {
  TcpHeader header;
  header.flags = flag_bit(TcpFlag::kSyn);
  EXPECT_TRUE(header.is_syn_probe());
  header.flags = flag_bit(TcpFlag::kSyn) | flag_bit(TcpFlag::kAck);
  EXPECT_FALSE(header.is_syn_probe());
  EXPECT_TRUE(header.is_syn_ack());
  header.flags = flag_bit(TcpFlag::kRst);
  EXPECT_FALSE(header.is_syn_probe());
  EXPECT_TRUE(header.has(TcpFlag::kRst));
}

TEST(Tcp, XmasAndNullPredicates) {
  TcpHeader header;
  header.flags = 0x3f;
  EXPECT_TRUE(header.is_xmas());
  EXPECT_FALSE(header.is_null());
  header.flags = 0;
  EXPECT_TRUE(header.is_null());
  EXPECT_FALSE(header.is_xmas());
  header.flags = flag_bit(TcpFlag::kSyn);
  EXPECT_FALSE(header.is_xmas());
  EXPECT_FALSE(header.is_null());
}

TEST(Tcp, DecodeRejectsBadDataOffset) {
  std::vector<std::uint8_t> bytes;
  encode_tcp(sample_tcp(), bytes);
  bytes[12] = 4u << 4;  // below minimum of 5 words
  EXPECT_FALSE(decode_tcp(bytes).has_value());
  bytes[12] = 15u << 4;  // 60-byte header, but only 20 bytes present
  EXPECT_FALSE(decode_tcp(bytes).has_value());
}

TEST(Udp, EncodeDecodeRoundTrip) {
  UdpHeader header;
  header.source_port = 53;
  header.destination_port = 5353;
  header.length = 20;
  header.checksum = 0xbeef;
  std::vector<std::uint8_t> bytes;
  encode_udp(header, bytes);
  const auto decoded = decode_udp(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->source_port, 53);
  EXPECT_EQ(decoded->destination_port, 5353);
  EXPECT_EQ(decoded->length, 20);
}

TEST(Udp, RejectsLengthBelowHeader) {
  UdpHeader header;
  header.length = 7;
  std::vector<std::uint8_t> bytes;
  encode_udp(header, bytes);
  EXPECT_FALSE(decode_udp(bytes).has_value());
}

TEST(Icmp, EncodeDecodeRoundTrip) {
  IcmpHeader header;
  header.type = 3;  // destination unreachable
  header.code = 1;
  header.rest = 0xcafef00d;
  std::vector<std::uint8_t> bytes;
  encode_icmp(header, bytes);
  const auto decoded = decode_icmp(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, 3);
  EXPECT_EQ(decoded->code, 1);
  EXPECT_EQ(decoded->rest, 0xcafef00d);
}

TEST(Headers, RandomizedRoundTripSweep) {
  simgen::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    TcpHeader header;
    header.source_port = rng.next_u16();
    header.destination_port = rng.next_u16();
    header.sequence = rng.next_u32();
    header.acknowledgment = rng.next_u32();
    header.flags = static_cast<std::uint8_t>(rng.uniform(64));
    header.window = rng.next_u16();
    header.checksum = rng.next_u16();
    header.urgent_pointer = rng.next_u16();
    std::vector<std::uint8_t> bytes;
    encode_tcp(header, bytes);
    const auto decoded = decode_tcp(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->source_port, header.source_port);
    EXPECT_EQ(decoded->destination_port, header.destination_port);
    EXPECT_EQ(decoded->sequence, header.sequence);
    EXPECT_EQ(decoded->acknowledgment, header.acknowledgment);
    EXPECT_EQ(decoded->flags, header.flags);
    EXPECT_EQ(decoded->window, header.window);
    EXPECT_EQ(decoded->urgent_pointer, header.urgent_pointer);
  }
}

}  // namespace
}  // namespace synscan::net
