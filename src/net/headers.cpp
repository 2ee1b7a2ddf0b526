#include "net/headers.h"

#include "net/checksum.h"
#include "net/endian.h"

namespace synscan::net {

void encode_ethernet(const EthernetHeader& header, std::vector<std::uint8_t>& out) {
  const auto base = out.size();
  out.resize(base + EthernetHeader::kSize);
  auto* p = out.data() + base;
  for (std::size_t i = 0; i < 6; ++i) {
    p[i] = header.destination.octets()[i];
    p[6 + i] = header.source.octets()[i];
  }
  store_be16(p + 12, header.ether_type);
}

void encode_ipv4(const Ipv4Header& header, std::vector<std::uint8_t>& out) {
  const auto base = out.size();
  const auto len = header.header_length();
  out.resize(base + len, 0);
  auto* p = out.data() + base;
  p[0] = static_cast<std::uint8_t>((header.version << 4) | (header.ihl & 0x0f));
  p[1] = header.dscp_ecn;
  store_be16(p + 2, header.total_length);
  store_be16(p + 4, header.identification);
  std::uint16_t frag = header.fragment_offset & 0x1fff;
  if (header.dont_fragment) frag |= 0x4000;
  if (header.more_fragments) frag |= 0x2000;
  store_be16(p + 6, frag);
  p[8] = header.ttl;
  p[9] = header.protocol;
  store_be16(p + 10, 0);  // checksum computed below
  store_be32(p + 12, header.source.value());
  store_be32(p + 16, header.destination.value());
  const auto checksum = internet_checksum({p, len});
  store_be16(p + 10, checksum);
}

void encode_tcp(const TcpHeader& header, std::vector<std::uint8_t>& out) {
  const auto base = out.size();
  const auto len = header.header_length();
  out.resize(base + len, 0);
  auto* p = out.data() + base;
  store_be16(p, header.source_port);
  store_be16(p + 2, header.destination_port);
  store_be32(p + 4, header.sequence);
  store_be32(p + 8, header.acknowledgment);
  p[12] = static_cast<std::uint8_t>(header.data_offset << 4);
  p[13] = header.flags & 0x3f;
  store_be16(p + 14, header.window);
  store_be16(p + 16, header.checksum);
  store_be16(p + 18, header.urgent_pointer);
}

void encode_udp(const UdpHeader& header, std::vector<std::uint8_t>& out) {
  const auto base = out.size();
  out.resize(base + UdpHeader::kSize);
  auto* p = out.data() + base;
  store_be16(p, header.source_port);
  store_be16(p + 2, header.destination_port);
  store_be16(p + 4, header.length);
  store_be16(p + 6, header.checksum);
}

void encode_icmp(const IcmpHeader& header, std::vector<std::uint8_t>& out) {
  const auto base = out.size();
  out.resize(base + IcmpHeader::kSize);
  auto* p = out.data() + base;
  p[0] = header.type;
  p[1] = header.code;
  store_be16(p + 2, header.checksum);
  store_be32(p + 4, header.rest);
}

}  // namespace synscan::net
