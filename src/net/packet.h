// Whole-frame decode and build on top of the header codecs.
//
// The decode path turns a raw Ethernet frame into a `DecodedFrame` of
// value-type headers; the build path crafts byte-exact frames (correct
// lengths and checksums) so simulator output is indistinguishable, at the
// parser level, from real capture data.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "net/headers.h"

namespace synscan::net {

/// Microseconds since the Unix epoch; the native timestamp unit of both
/// pcap files and this library.
using TimeUs = std::int64_t;

inline constexpr TimeUs kMicrosPerSecond = 1'000'000;
inline constexpr TimeUs kMicrosPerMinute = 60 * kMicrosPerSecond;
inline constexpr TimeUs kMicrosPerHour = 60 * kMicrosPerMinute;
inline constexpr TimeUs kMicrosPerDay = 24 * kMicrosPerHour;
inline constexpr TimeUs kMicrosPerWeek = 7 * kMicrosPerDay;

/// A captured frame: capture timestamp plus the raw bytes.
struct RawFrame {
  TimeUs timestamp_us = 0;
  std::vector<std::uint8_t> bytes;
};

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
[[nodiscard]] std::optional<DecodedFrame> decode_frame(
    std::span<const std::uint8_t> frame) noexcept;

/// Parameters for crafting a TCP probe frame.
struct TcpFrameSpec {
  MacAddress src_mac = MacAddress::local(1);
  MacAddress dst_mac = MacAddress::local(2);
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t sequence = 0;
  std::uint32_t acknowledgment = 0;
  std::uint8_t flags = flag_bit(TcpFlag::kSyn);
  std::uint16_t window = 65535;
  std::uint16_t ip_id = 0;
  std::uint8_t ttl = 64;
  std::vector<std::uint8_t> payload;
};

/// Builds a byte-exact Ethernet/IPv4/TCP frame: correct total length,
/// IPv4 header checksum and TCP pseudo-header checksum.
[[nodiscard]] std::vector<std::uint8_t> build_tcp_frame(const TcpFrameSpec& spec);

/// Builds an Ethernet/IPv4/UDP frame (used for non-scan background noise).
struct UdpFrameSpec {
  MacAddress src_mac = MacAddress::local(1);
  MacAddress dst_mac = MacAddress::local(2);
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t ip_id = 0;
  std::uint8_t ttl = 64;
  std::vector<std::uint8_t> payload;
};

[[nodiscard]] std::vector<std::uint8_t> build_udp_frame(const UdpFrameSpec& spec);

/// Verifies the transport checksum of a decoded TCP frame against the raw
/// bytes (used by tests and by strict-mode sensing).
[[nodiscard]] bool verify_tcp_checksum(std::span<const std::uint8_t> frame) noexcept;

}  // namespace synscan::net
