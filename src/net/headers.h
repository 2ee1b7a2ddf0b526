// Wire-format encoders for the protocol headers the telescope sees.
//
// Each header is a plain value struct with an `encode` function, from
// which the traffic generator builds frames (net/packet.h); the frame
// classifier (telescope/classify_detail.h) reads raw bytes by its sizes.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "net/mac.h"

namespace synscan::net {

// ---------------------------------------------------------------------------
// Ethernet II
// ---------------------------------------------------------------------------

/// EtherType values this library interprets.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
  kIpv6 = 0x86dd,
};

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddress destination;
  MacAddress source;
  std::uint16_t ether_type = 0;

  [[nodiscard]] bool is_ipv4() const noexcept {
    return ether_type == static_cast<std::uint16_t>(EtherType::kIpv4);
  }
};

/// Appends the 14-byte encoding of `header` to `out`.
void encode_ethernet(const EthernetHeader& header, std::vector<std::uint8_t>& out);

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

/// Protocol numbers relevant to scan analysis.
enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

struct Ipv4Header {
  static constexpr std::size_t kMinSize = 20;

  std::uint8_t version = 4;
  std::uint8_t ihl = 5;  ///< header length in 32-bit words (5..15)
  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;  ///< the IP-ID field ZMap/Masscan mark
  bool dont_fragment = false;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  ///< in 8-byte units
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  std::uint16_t header_checksum = 0;
  Ipv4Address source;
  Ipv4Address destination;

  [[nodiscard]] std::size_t header_length() const noexcept {
    return static_cast<std::size_t>(ihl) * 4;
  }
  [[nodiscard]] bool is_tcp() const noexcept {
    return protocol == static_cast<std::uint8_t>(IpProtocol::kTcp);
  }
  /// True if this datagram is a fragment other than the first; such frames
  /// carry no transport header and are skipped by the sensor.
  [[nodiscard]] bool is_later_fragment() const noexcept { return fragment_offset != 0; }
};

/// Appends the (ihl*4)-byte encoding to `out`, computing the checksum.
/// Options beyond the fixed 20 bytes are zero-filled.
void encode_ipv4(const Ipv4Header& header, std::vector<std::uint8_t>& out);

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// TCP control flags, combinable as a bitmask.
enum class TcpFlag : std::uint8_t {
  kFin = 0x01,
  kSyn = 0x02,
  kRst = 0x04,
  kPsh = 0x08,
  kAck = 0x10,
  kUrg = 0x20,
};

[[nodiscard]] constexpr std::uint8_t flag_bit(TcpFlag f) noexcept {
  return static_cast<std::uint8_t>(f);
}

struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;

  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  std::uint32_t sequence = 0;
  std::uint32_t acknowledgment = 0;
  std::uint8_t data_offset = 5;  ///< header length in 32-bit words (5..15)
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  std::uint16_t checksum = 0;
  std::uint16_t urgent_pointer = 0;

  [[nodiscard]] bool has(TcpFlag f) const noexcept { return (flags & flag_bit(f)) != 0; }

  /// The telescope's scan predicate: SYN set, ACK clear. A SYN/ACK is
  /// backscatter from a spoofed-source attack, not a probe.
  [[nodiscard]] bool is_syn_probe() const noexcept {
    return has(TcpFlag::kSyn) && !has(TcpFlag::kAck);
  }
  [[nodiscard]] bool is_syn_ack() const noexcept {
    return has(TcpFlag::kSyn) && has(TcpFlag::kAck);
  }
  /// All control bits lit ("XMAS" probe).
  [[nodiscard]] bool is_xmas() const noexcept { return (flags & 0x3f) == 0x3f; }
  /// No control bits at all ("NULL" probe).
  [[nodiscard]] bool is_null() const noexcept { return (flags & 0x3f) == 0; }

  [[nodiscard]] std::size_t header_length() const noexcept {
    return static_cast<std::size_t>(data_offset) * 4;
  }
};

/// Appends the (data_offset*4)-byte encoding to `out`; the checksum field
/// is emitted as stored (call `transport_checksum` to fill it properly).
void encode_tcp(const TcpHeader& header, std::vector<std::uint8_t>& out);

// ---------------------------------------------------------------------------
// UDP (the sensor counts non-TCP background radiation)
// ---------------------------------------------------------------------------

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  std::uint16_t length = 0;
  std::uint16_t checksum = 0;
};

void encode_udp(const UdpHeader& header, std::vector<std::uint8_t>& out);

// ---------------------------------------------------------------------------
// ICMP (backscatter such as dest-unreachable also reaches telescopes)
// ---------------------------------------------------------------------------

struct IcmpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;
  std::uint32_t rest = 0;  ///< type-specific (id/seq, gateway, unused)
};

void encode_icmp(const IcmpHeader& header, std::vector<std::uint8_t>& out);

}  // namespace synscan::net
