// The per-frame reference decoder and sensor, kept for the tests only.
//
// The program classifies frames in one place, `core::FrameBatcher`
// (through `telescope::detail::classify_raw`), which reads the raw bytes
// in place. This header is the independent second reading the tests
// hold it to: every header decoded into a value struct, the frame into a
// `DecodedFrame`, and `Sensor::classify` applying the §3.2 sensor rule to
// the structs. Decoding is total: malformed or truncated input yields
// `std::nullopt` rather than throwing. The codec tests (net/, simgen/)
// read back what the encoders built through the same decoders.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>

#include "net/checksum.h"
#include "net/endian.h"
#include "net/headers.h"
#include "net/packet.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::net {

/// Decodes an Ethernet II header from the front of `frame`.
[[nodiscard]] inline std::optional<EthernetHeader> decode_ethernet(
    std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < EthernetHeader::kSize) return std::nullopt;
  EthernetHeader h;
  std::array<std::uint8_t, 6> dst{};
  std::array<std::uint8_t, 6> src{};
  for (std::size_t i = 0; i < 6; ++i) {
    dst[i] = frame[i];
    src[i] = frame[6 + i];
  }
  h.destination = MacAddress(dst);
  h.source = MacAddress(src);
  h.ether_type = load_be16(frame.data() + 12);
  return h;
}

/// Decodes and validates an IPv4 header from the front of `data`.
/// Rejects: short input, version != 4, ihl < 5, total_length smaller than
/// the header, or a header checksum mismatch (when `verify_checksum`).
[[nodiscard]] inline std::optional<Ipv4Header> decode_ipv4(std::span<const std::uint8_t> data,
                                                           bool verify_checksum = false) noexcept {
  if (data.size() < Ipv4Header::kMinSize) return std::nullopt;
  Ipv4Header h;
  h.version = data[0] >> 4;
  h.ihl = data[0] & 0x0f;
  if (h.version != 4 || h.ihl < 5) return std::nullopt;
  if (data.size() < h.header_length()) return std::nullopt;
  h.dscp_ecn = data[1];
  h.total_length = load_be16(data.data() + 2);
  if (h.total_length < h.header_length()) return std::nullopt;
  h.identification = load_be16(data.data() + 4);
  const std::uint16_t frag = load_be16(data.data() + 6);
  h.dont_fragment = (frag & 0x4000) != 0;
  h.more_fragments = (frag & 0x2000) != 0;
  h.fragment_offset = frag & 0x1fff;
  h.ttl = data[8];
  h.protocol = data[9];
  h.header_checksum = load_be16(data.data() + 10);
  h.source = Ipv4Address(load_be32(data.data() + 12));
  h.destination = Ipv4Address(load_be32(data.data() + 16));
  if (verify_checksum) {
    // Checksum over the header with the checksum field included must fold
    // to zero (its one's-complement sum equals 0xffff).
    ChecksumAccumulator acc;
    acc.add(data.first(h.header_length()));
    if (acc.finish() != 0) return std::nullopt;
  }
  return h;
}

/// Decodes a TCP header from the front of `data`. Rejects short input and
/// data offsets below 5 words or beyond the available bytes.
[[nodiscard]] inline std::optional<TcpHeader> decode_tcp(
    std::span<const std::uint8_t> data) noexcept {
  if (data.size() < TcpHeader::kMinSize) return std::nullopt;
  TcpHeader h;
  h.source_port = load_be16(data.data());
  h.destination_port = load_be16(data.data() + 2);
  h.sequence = load_be32(data.data() + 4);
  h.acknowledgment = load_be32(data.data() + 8);
  h.data_offset = data[12] >> 4;
  if (h.data_offset < 5) return std::nullopt;
  if (data.size() < h.header_length()) return std::nullopt;
  h.flags = data[13] & 0x3f;
  h.window = load_be16(data.data() + 14);
  h.checksum = load_be16(data.data() + 16);
  h.urgent_pointer = load_be16(data.data() + 18);
  return h;
}

[[nodiscard]] inline std::optional<UdpHeader> decode_udp(
    std::span<const std::uint8_t> data) noexcept {
  if (data.size() < UdpHeader::kSize) return std::nullopt;
  UdpHeader h;
  h.source_port = load_be16(data.data());
  h.destination_port = load_be16(data.data() + 2);
  h.length = load_be16(data.data() + 4);
  if (h.length < UdpHeader::kSize) return std::nullopt;
  h.checksum = load_be16(data.data() + 6);
  return h;
}

[[nodiscard]] inline std::optional<IcmpHeader> decode_icmp(
    std::span<const std::uint8_t> data) noexcept {
  if (data.size() < IcmpHeader::kSize) return std::nullopt;
  IcmpHeader h;
  h.type = data[0];
  h.code = data[1];
  h.checksum = load_be16(data.data() + 2);
  h.rest = load_be32(data.data() + 4);
  return h;
}

/// A fully decoded IPv4-over-Ethernet frame. The transport member holds
/// whichever header the IP protocol field announced; frames with other
/// protocols decode with `transport` left as `std::monostate`.
struct DecodedFrame {
  EthernetHeader ethernet;
  Ipv4Header ip;
  std::variant<std::monostate, TcpHeader, UdpHeader, IcmpHeader> transport;
  std::size_t payload_length = 0;  ///< transport payload bytes present

  [[nodiscard]] const TcpHeader* tcp() const noexcept {
    return std::get_if<TcpHeader>(&transport);
  }
  [[nodiscard]] const UdpHeader* udp() const noexcept {
    return std::get_if<UdpHeader>(&transport);
  }
  [[nodiscard]] const IcmpHeader* icmp() const noexcept {
    return std::get_if<IcmpHeader>(&transport);
  }
};

/// Decodes an Ethernet frame down to the transport header. Returns
/// nullopt when the frame is not well-formed IPv4 (wrong EtherType,
/// truncated network header). A valid IPv4 frame whose transport header
/// is truncated or unknown still decodes, with `transport` empty, so the
/// sensor can count it as unclassified radiation.
[[nodiscard]] inline std::optional<DecodedFrame> decode_frame(
    std::span<const std::uint8_t> frame) noexcept {
  const auto eth = decode_ethernet(frame);
  if (!eth || !eth->is_ipv4()) return std::nullopt;
  const auto ip_bytes = frame.subspan(EthernetHeader::kSize);
  const auto ip = decode_ipv4(ip_bytes);
  if (!ip) return std::nullopt;

  DecodedFrame out;
  out.ethernet = *eth;
  out.ip = *ip;

  if (ip->is_later_fragment()) return out;  // no transport header present

  // The IP total_length may be smaller than the captured bytes (padding to
  // the Ethernet minimum); trust the smaller of the two.
  const auto declared = static_cast<std::size_t>(ip->total_length);
  const auto available = std::min(ip_bytes.size(), declared);
  if (available < ip->header_length()) return out;
  const auto transport_bytes = ip_bytes.subspan(ip->header_length(),
                                                available - ip->header_length());

  switch (static_cast<IpProtocol>(ip->protocol)) {
    case IpProtocol::kTcp:
      if (const auto tcp = decode_tcp(transport_bytes)) {
        out.transport = *tcp;
        out.payload_length = transport_bytes.size() - tcp->header_length();
      }
      break;
    case IpProtocol::kUdp:
      if (const auto udp = decode_udp(transport_bytes)) {
        out.transport = *udp;
        out.payload_length = transport_bytes.size() - UdpHeader::kSize;
      }
      break;
    case IpProtocol::kIcmp:
      if (const auto icmp = decode_icmp(transport_bytes)) {
        out.transport = *icmp;
        out.payload_length = transport_bytes.size() - IcmpHeader::kSize;
      }
      break;
  }
  return out;
}

/// Verifies the transport checksum of a decoded TCP frame against the raw
/// bytes.
[[nodiscard]] inline bool verify_tcp_checksum(std::span<const std::uint8_t> frame) noexcept {
  const auto decoded = decode_frame(frame);
  if (!decoded || !decoded->tcp()) return false;
  const auto& ip = decoded->ip;
  // total_length comes off the wire; a corrupted value must not steer the
  // span past the captured frame (or below the IP header).
  if (ip.total_length < ip.header_length()) return false;
  const auto segment_length = static_cast<std::size_t>(ip.total_length) - ip.header_length();
  const auto segment_offset = EthernetHeader::kSize + ip.header_length();
  if (segment_length > frame.size() - segment_offset) return false;
  const auto segment = frame.subspan(segment_offset, segment_length);
  // Including the stored checksum, the one's-complement sum must fold to 0.
  ChecksumAccumulator acc;
  acc.add_dword(ip.source.value());
  acc.add_dword(ip.destination.value());
  acc.add_word(ip.protocol);
  acc.add_word(static_cast<std::uint16_t>(segment.size()));
  acc.add(segment);
  return acc.finish() == 0;
}

}  // namespace synscan::net

namespace synscan::telescope {

/// Stateless-per-frame classifier bound to a telescope. Thread-compatible:
/// use one sensor per thread and merge counters.
class Sensor {
 public:
  explicit Sensor(const Telescope& telescope) : telescope_(&telescope) {}
  /// The sensor keeps a pointer; a temporary telescope would dangle.
  explicit Sensor(const Telescope&&) = delete;

  /// Classifies a raw frame; fills `probe` when the result is kScanProbe.
  /// Decodes every header into a `DecodedFrame`, where the program's
  /// batch classifier reads the raw bytes; the differential tests hold
  /// the two together.
  FrameClass classify(const net::RawFrame& raw, ScanProbe& probe) {
    const auto decoded = net::decode_frame(raw.bytes);
    if (!decoded) {
      ++counters_.malformed;
      return FrameClass::kMalformed;
    }
    const net::DecodedFrame& frame = *decoded;
    const net::TimeUs timestamp_us = raw.timestamp_us;
    if (!telescope_->monitors(frame.ip.destination)) {
      ++counters_.not_monitored;
      return FrameClass::kNotMonitored;
    }

    if (const auto* tcp = frame.tcp()) {
      if (telescope_->ingress_blocked(tcp->destination_port, timestamp_us)) {
        ++counters_.ingress_blocked;
        return FrameClass::kIngressBlocked;
      }
      if (tcp->is_xmas() || tcp->is_null()) {
        ++counters_.xmas_or_null;
        return FrameClass::kXmasOrNull;
      }
      if (tcp->is_syn_probe()) {
        if (frame.ip.source.is_reserved_source() || frame.ip.source.is_private()) {
          ++counters_.spoofed_source;
          return FrameClass::kSpoofedSource;
        }
        probe.timestamp_us = timestamp_us;
        probe.source = frame.ip.source;
        probe.destination = frame.ip.destination;
        probe.source_port = tcp->source_port;
        probe.destination_port = tcp->destination_port;
        probe.sequence = tcp->sequence;
        probe.acknowledgment = tcp->acknowledgment;
        probe.ip_id = frame.ip.identification;
        probe.window = tcp->window;
        probe.ttl = frame.ip.ttl;
        ++counters_.scan_probes;
        return FrameClass::kScanProbe;
      }
      if (tcp->is_syn_ack() || tcp->has(net::TcpFlag::kRst)) {
        ++counters_.backscatter;
        return FrameClass::kBackscatter;
      }
      ++counters_.other_tcp;
      return FrameClass::kOtherTcp;
    }
    if (frame.udp() != nullptr) {
      ++counters_.udp;
      return FrameClass::kUdp;
    }
    if (frame.icmp() != nullptr) {
      ++counters_.icmp;
      return FrameClass::kIcmp;
    }
    ++counters_.malformed;
    return FrameClass::kMalformed;
  }

  [[nodiscard]] const SensorCounters& counters() const noexcept { return counters_; }

 private:
  const Telescope* telescope_;
  SensorCounters counters_;
};

}  // namespace synscan::telescope
