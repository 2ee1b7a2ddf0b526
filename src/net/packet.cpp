#include "net/packet.h"

#include "net/checksum.h"
#include "net/endian.h"

namespace synscan::net {

std::vector<std::uint8_t> build_tcp_frame(const TcpFrameSpec& spec) {
  std::vector<std::uint8_t> frame;
  frame.reserve(EthernetHeader::kSize + Ipv4Header::kMinSize + TcpHeader::kMinSize +
                spec.payload.size());

  EthernetHeader eth;
  eth.destination = spec.dst_mac;
  eth.source = spec.src_mac;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  encode_ethernet(eth, frame);

  const std::size_t segment_length = TcpHeader::kMinSize + spec.payload.size();

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kMinSize + segment_length);
  ip.identification = spec.ip_id;
  ip.dont_fragment = true;
  ip.ttl = spec.ttl;
  ip.protocol = static_cast<std::uint8_t>(IpProtocol::kTcp);
  ip.source = spec.src_ip;
  ip.destination = spec.dst_ip;
  encode_ipv4(ip, frame);

  TcpHeader tcp;
  tcp.source_port = spec.src_port;
  tcp.destination_port = spec.dst_port;
  tcp.sequence = spec.sequence;
  tcp.acknowledgment = spec.acknowledgment;
  tcp.flags = spec.flags;
  tcp.window = spec.window;
  const std::size_t tcp_offset = frame.size();
  encode_tcp(tcp, frame);
  frame.insert(frame.end(), spec.payload.begin(), spec.payload.end());

  const std::span<const std::uint8_t> segment{frame.data() + tcp_offset, segment_length};
  const auto checksum =
      transport_checksum(spec.src_ip, spec.dst_ip,
                         static_cast<std::uint8_t>(IpProtocol::kTcp), segment);
  store_be16(frame.data() + tcp_offset + 16, checksum);
  return frame;
}

std::vector<std::uint8_t> build_udp_frame(const UdpFrameSpec& spec) {
  std::vector<std::uint8_t> frame;
  frame.reserve(EthernetHeader::kSize + Ipv4Header::kMinSize + UdpHeader::kSize +
                spec.payload.size());

  EthernetHeader eth;
  eth.destination = spec.dst_mac;
  eth.source = spec.src_mac;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  encode_ethernet(eth, frame);

  const std::size_t segment_length = UdpHeader::kSize + spec.payload.size();

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kMinSize + segment_length);
  ip.identification = spec.ip_id;
  ip.dont_fragment = true;
  ip.ttl = spec.ttl;
  ip.protocol = static_cast<std::uint8_t>(IpProtocol::kUdp);
  ip.source = spec.src_ip;
  ip.destination = spec.dst_ip;
  encode_ipv4(ip, frame);

  UdpHeader udp;
  udp.source_port = spec.src_port;
  udp.destination_port = spec.dst_port;
  udp.length = static_cast<std::uint16_t>(segment_length);
  const std::size_t udp_offset = frame.size();
  encode_udp(udp, frame);
  frame.insert(frame.end(), spec.payload.begin(), spec.payload.end());

  const std::span<const std::uint8_t> segment{frame.data() + udp_offset, segment_length};
  const auto checksum =
      transport_checksum(spec.src_ip, spec.dst_ip,
                         static_cast<std::uint8_t>(IpProtocol::kUdp), segment);
  store_be16(frame.data() + udp_offset + 6, checksum);
  return frame;
}

}  // namespace synscan::net
