// The scan-campaign record — the unit of analysis of the whole paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/port_map.h"
#include "fingerprint/tool.h"
#include "net/packet.h"

namespace synscan::core {

/// A flow's lifetime in seconds, floored at 1 s so single-burst flows
/// have a defined rate (§3.4).
[[nodiscard]] inline double flow_duration_seconds(net::TimeUs first_seen_us,
                                                  net::TimeUs last_seen_us) noexcept {
  const auto us = last_seen_us - first_seen_us;
  return us < net::kMicrosPerSecond
             ? 1.0
             : static_cast<double>(us) / static_cast<double>(net::kMicrosPerSecond);
}

/// A finalized scan campaign: a sequence of probes from one source that
/// met the §3.4 thresholds (>= 100 distinct dark destinations at an
/// inferred Internet-wide rate of >= 100 pps, with no gap above 1 hour).
struct Campaign {
  std::uint64_t id = 0;
  net::Ipv4Address source;
  net::TimeUs first_seen_us = 0;
  net::TimeUs last_seen_us = 0;
  std::uint64_t packets = 0;
  std::uint32_t distinct_destinations = 0;
  /// Probe count per targeted destination port. Flat inline-first map:
  /// no heap for the (dominant) few-port campaigns, open addressing for
  /// vertical scans. Iteration yields `(port, packets)` pairs like the
  /// `unordered_map` it replaced.
  PortPacketMap port_packets;
  fingerprint::Tool tool = fingerprint::Tool::kUnknown;

  // Derived at finalization time from the telescope's geometric model:
  double extrapolated_pps = 0.0;       ///< inferred Internet-wide probe rate
  double coverage_fraction = 0.0;      ///< inferred fraction of IPv4 covered
  double extrapolated_packets = 0.0;   ///< inferred Internet-wide probe count

  /// Campaign lifetime in seconds (`flow_duration_seconds`).
  [[nodiscard]] double duration_seconds() const noexcept {
    return flow_duration_seconds(first_seen_us, last_seen_us);
  }

  /// Number of distinct destination ports targeted.
  [[nodiscard]] std::size_t distinct_ports() const noexcept { return port_packets.size(); }

  /// Whether the campaign probed `port` at least once.
  [[nodiscard]] bool targets_port(std::uint16_t port) const noexcept {
    return port_packets.contains(port);
  }

  /// Estimated wire speed in megabits/second, assuming minimum-size SYN
  /// frames (60 bytes on the wire).
  [[nodiscard]] double speed_mbps() const noexcept {
    return extrapolated_pps * 60.0 * 8.0 / 1e6;
  }
};

/// The canonical report order — by first packet, then source — with ids
/// re-issued 1..N. Closure order depends on sweep timing, flow-table
/// layout and how tracking was split (workers, shards); reports must not.
inline void sort_canonical(std::vector<Campaign>& campaigns) {
  std::sort(campaigns.begin(), campaigns.end(), [](const Campaign& a, const Campaign& b) {
    if (a.first_seen_us != b.first_seen_us) return a.first_seen_us < b.first_seen_us;
    return a.source < b.source;
  });
  std::uint64_t next_id = 1;
  for (auto& campaign : campaigns) campaign.id = next_id++;
}

}  // namespace synscan::core
