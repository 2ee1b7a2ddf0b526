#include "telescope/sensor.h"

#include <algorithm>

#include "net/endian.h"
#include "net/headers.h"
#include "telescope/classify_detail.h"

namespace synscan::telescope {

namespace detail {

FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out) {
  // Link layer: Ethernet II only (the capture readers refuse any other
  // link type); a short frame or any EtherType but IPv4 is malformed.
  if (bytes.size() < net::EthernetHeader::kSize ||
      net::load_be16(bytes.data() + 12) !=
          static_cast<std::uint16_t>(net::EtherType::kIpv4)) {
    ++counters.malformed;
    return FrameClass::kMalformed;
  }

  // Network layer: version 4, a header of at least 5 words that the
  // captured bytes and the declared total length both cover.
  const std::uint8_t* ip = bytes.data() + net::EthernetHeader::kSize;
  const std::size_t ip_size = bytes.size() - net::EthernetHeader::kSize;
  if (ip_size < net::Ipv4Header::kMinSize) {
    ++counters.malformed;
    return FrameClass::kMalformed;
  }
  const std::uint8_t version = ip[0] >> 4;
  const std::size_t header_length = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  const std::uint16_t total_length = net::load_be16(ip + 2);
  if (version != 4 || header_length < net::Ipv4Header::kMinSize ||
      ip_size < header_length || total_length < header_length) {
    ++counters.malformed;
    return FrameClass::kMalformed;
  }

  const net::Ipv4Address destination(net::load_be32(ip + 16));
  if (!telescope.monitors(destination)) {
    ++counters.not_monitored;
    return FrameClass::kNotMonitored;
  }

  // Transport presence: a later fragment carries no transport header,
  // and the payload window is bounded by the smaller of the captured
  // bytes and the declared total length (Ethernet padding).
  const bool later_fragment = (net::load_be16(ip + 6) & 0x1fff) != 0;
  const std::size_t available = std::min<std::size_t>(ip_size, total_length);
  const std::uint8_t protocol = ip[9];
  const std::uint8_t* transport = ip + header_length;
  const std::size_t transport_size = available - header_length;

  if (!later_fragment && protocol == static_cast<std::uint8_t>(net::IpProtocol::kTcp) &&
      transport_size >= net::TcpHeader::kMinSize) {
    const std::size_t tcp_header_length =
        static_cast<std::size_t>(transport[12] >> 4) * 4;
    if (tcp_header_length >= net::TcpHeader::kMinSize &&
        transport_size >= tcp_header_length) {
      const std::uint16_t destination_port = net::load_be16(transport + 2);
      if (telescope.ingress_blocked(destination_port, timestamp_us)) {
        ++counters.ingress_blocked;
        return FrameClass::kIngressBlocked;
      }
      const std::uint8_t flags = transport[13] & 0x3f;
      if (flags == 0x3f || flags == 0) {
        ++counters.xmas_or_null;
        return FrameClass::kXmasOrNull;
      }
      const bool syn = (flags & net::flag_bit(net::TcpFlag::kSyn)) != 0;
      const bool ack = (flags & net::flag_bit(net::TcpFlag::kAck)) != 0;
      if (syn && !ack) {
        const net::Ipv4Address source(net::load_be32(ip + 12));
        if (source.is_reserved_source() || source.is_private()) {
          ++counters.spoofed_source;
          return FrameClass::kSpoofedSource;
        }
        const auto i = out.count++;
        out.timestamp_us[i] = timestamp_us;
        out.source[i] = source.value();
        out.destination[i] = destination.value();
        out.source_port[i] = net::load_be16(transport);
        out.destination_port[i] = destination_port;
        out.sequence[i] = net::load_be32(transport + 4);
        out.acknowledgment[i] = net::load_be32(transport + 8);
        out.ip_id[i] = net::load_be16(ip + 4);
        out.window[i] = net::load_be16(transport + 14);
        out.ttl[i] = ip[8];
        ++counters.scan_probes;
        return FrameClass::kScanProbe;
      }
      if ((syn && ack) || (flags & net::flag_bit(net::TcpFlag::kRst)) != 0) {
        ++counters.backscatter;
        return FrameClass::kBackscatter;
      }
      ++counters.other_tcp;
      return FrameClass::kOtherTcp;
    }
    // A data offset below 5 words or past the segment: no transport.
  } else if (!later_fragment &&
             protocol == static_cast<std::uint8_t>(net::IpProtocol::kUdp) &&
             transport_size >= net::UdpHeader::kSize) {
    if (net::load_be16(transport + 4) >= net::UdpHeader::kSize) {
      ++counters.udp;
      return FrameClass::kUdp;
    }
    // A UDP length below 8 bytes: no transport header.
  } else if (!later_fragment &&
             protocol == static_cast<std::uint8_t>(net::IpProtocol::kIcmp) &&
             transport_size >= net::IcmpHeader::kSize) {
    ++counters.icmp;
    return FrameClass::kIcmp;
  }
  ++counters.malformed;
  return FrameClass::kMalformed;
}

}  // namespace detail

}  // namespace synscan::telescope
