// The sensor front-end: raw frames in, classified scan probes out.
//
// Unused address space receives two kinds of traffic (§3.2): backscatter
// of spoofed-source attacks (SYN/ACKs, RSTs, ICMP errors) and genuine
// scanning probes. Following standard practice the sensor keeps only TCP
// frames with SYN set and ACK clear as scan probes; everything else is
// counted but not forwarded to the campaign pipeline.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "telescope/telescope.h"

namespace synscan::telescope {

/// A SYN probe that passed all sensor filters, reduced to the fields the
/// analysis pipeline needs. This is the pipeline's unit record.
struct ScanProbe {
  net::TimeUs timestamp_us = 0;
  net::Ipv4Address source;
  net::Ipv4Address destination;
  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  std::uint32_t sequence = 0;
  std::uint32_t acknowledgment = 0;
  std::uint16_t ip_id = 0;
  std::uint16_t window = 0;
  std::uint8_t ttl = 0;
};

/// How the sensor classified a frame.
enum class FrameClass {
  kScanProbe,        ///< TCP SYN (no ACK) to a dark address — forwarded
  kBackscatter,      ///< TCP SYN/ACK, RST, or other non-SYN control traffic
  kXmasOrNull,       ///< exotic probe types; counted separately (§3.1)
  kOtherTcp,         ///< TCP frames that are neither probes nor classic backscatter
  kUdp,              ///< UDP background radiation
  kIcmp,             ///< ICMP backscatter (e.g. dest-unreachable)
  kNotMonitored,     ///< destination is not a dark address
  kIngressBlocked,   ///< dropped by the ingress policy (ports 23/445 post-2017)
  kMalformed,        ///< undecodable or non-IPv4
  kSpoofedSource,    ///< reserved/multicast source — cannot be a real scanner
};

/// Tallies per classification, for data-quality reporting.
struct SensorCounters {
  std::uint64_t scan_probes = 0;
  std::uint64_t backscatter = 0;
  std::uint64_t xmas_or_null = 0;
  std::uint64_t other_tcp = 0;
  std::uint64_t udp = 0;
  std::uint64_t icmp = 0;
  std::uint64_t not_monitored = 0;
  std::uint64_t ingress_blocked = 0;
  std::uint64_t malformed = 0;
  std::uint64_t spoofed_source = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return scan_probes + backscatter + xmas_or_null + other_tcp + udp + icmp +
           not_monitored + ingress_blocked + malformed + spoofed_source;
  }

  /// Accumulates another tally (merging per-worker or per-stage sensors).
  void add(const SensorCounters& other) noexcept {
    scan_probes += other.scan_probes;
    backscatter += other.backscatter;
    xmas_or_null += other.xmas_or_null;
    other_tcp += other.other_tcp;
    udp += other.udp;
    icmp += other.icmp;
    not_monitored += other.not_monitored;
    ingress_blocked += other.ingress_blocked;
    malformed += other.malformed;
    spoofed_source += other.spoofed_source;
  }
};

/// Stateless-per-frame classifier bound to a telescope. Thread-compatible:
/// use one sensor per thread and merge counters.
class Sensor {
 public:
  explicit Sensor(const Telescope& telescope) : telescope_(&telescope) {}
  /// The sensor keeps a pointer; a temporary telescope would dangle.
  explicit Sensor(const Telescope&&) = delete;

  /// Classifies a raw frame; fills `probe` when the result is kScanProbe.
  /// The per-frame reference the batch classifier (`core::FrameBatcher`)
  /// is tested against: it decodes every header into a `DecodedFrame`,
  /// where the batch path reads the raw bytes, and the differential tests
  /// in tests/telescope/probe_batch_test.cpp hold the two together.
  FrameClass classify(const net::RawFrame& raw, ScanProbe& probe);

  [[nodiscard]] const SensorCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = {}; }

 private:
  const Telescope* telescope_;
  SensorCounters counters_;
};

}  // namespace synscan::telescope
