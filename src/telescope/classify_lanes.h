// Shared halves of the SIMD classify kernels (classify_sse2.cpp /
// classify_avx2.cpp): the lane buffers the vector front half fills and
// the scalar back half that turns lane values + predicate masks into
// counters and probe emissions.
//
// Split of work per group:
//   1. the kernel gathers the fixed-offset header fields of kLanes
//      frames into `LaneGroup` columns (byte-swapped to host order) and
//      evaluates two vector predicates —
//        header_mask: Ethernet/IPv4 shape matches the branch-free fast
//                     layout (ethertype 0x0800, version 4, IHL 5,
//                     total_length >= 20);
//        tcp_mask:    additionally first-fragment TCP with a complete,
//                     in-bounds header (subset of header_mask);
//   2. `finish_lanes` walks lanes in capture order: header_mask misses
//      fall back to `classify_raw` (IP options, non-IPv4, odd lengths —
//      the scalar reference handles every shape), header-only lanes
//      resolve the dark-address check, and tcp_mask lanes run the full
//      probe/backscatter decision from the extracted columns.
//
// Only frames of at least kMinLaneBytes enter a lane. Shorter frames
// cannot carry a complete TCP header (14 + 20 + 20 bytes), so they can
// never emit a probe; `core::FrameBatcher` classifies them scalar
// immediately, which keeps probe order exact without any reordering
// bookkeeping, and it bounds every lane gather (max offset 46 + 4)
// inside the frame.
#pragma once

#include <cstdint>

#include "net/headers.h"
#include "net/ipv4.h"
#include "telescope/classify_detail.h"

namespace synscan::telescope::detail {

/// Minimum frame bytes for lane eligibility; see header comment.
inline constexpr std::size_t kMinLaneBytes =
    net::EthernetHeader::kSize + net::Ipv4Header::kMinSize + net::TcpHeader::kMinSize;

/// Frames waiting for a full vector group, in capture order
/// (`core::FrameBatcher` fills it).
struct PendingLanes {
  const std::uint8_t* ptr[8];
  alignas(32) std::uint32_t caplen[8];
  net::TimeUs ts[8];
  std::size_t count = 0;
};

/// Header fields extracted by the vector front half, host byte order.
/// All columns are u32 lanes regardless of wire width; emission narrows.
struct LaneGroup {
  alignas(32) std::uint32_t source[8];
  alignas(32) std::uint32_t destination[8];
  alignas(32) std::uint32_t sequence[8];
  alignas(32) std::uint32_t acknowledgment[8];
  alignas(32) std::uint32_t source_port[8];
  alignas(32) std::uint32_t destination_port[8];
  alignas(32) std::uint32_t ip_id[8];
  alignas(32) std::uint32_t window[8];
  alignas(32) std::uint32_t ttl[8];
  alignas(32) std::uint32_t flags[8];
};

/// Scalar back half: resolves `n` lanes in capture order from the
/// extracted columns and the two predicate masks (bit i = lane i).
/// Mirrors classify_raw's decision order exactly; any lane the masks
/// cannot fully vouch for re-runs classify_raw on the original bytes.
inline void finish_lanes(const Telescope& telescope, const PendingLanes& pending,
                         const LaneGroup& lanes, unsigned header_mask,
                         unsigned tcp_mask, std::size_t n, SensorCounters& counters,
                         ProbeCursor& out, std::uint64_t& simd_rows) {
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned bit = 1u << i;
    if ((header_mask & bit) == 0) {
      classify_raw(telescope, pending.ts[i], {pending.ptr[i], pending.caplen[i]},
                   counters, out);
      continue;
    }
    const net::Ipv4Address destination(lanes.destination[i]);
    if (!telescope.monitors(destination)) {
      ++counters.not_monitored;
      ++simd_rows;
      continue;
    }
    if ((tcp_mask & bit) == 0) {
      // Monitored but not fast-path TCP: fragment, UDP, ICMP, truncated
      // TCP header... — the scalar reference owns those branches.
      classify_raw(telescope, pending.ts[i], {pending.ptr[i], pending.caplen[i]},
                   counters, out);
      continue;
    }
    ++simd_rows;
    const auto destination_port = static_cast<std::uint16_t>(lanes.destination_port[i]);
    if (telescope.ingress_blocked(destination_port, pending.ts[i])) {
      ++counters.ingress_blocked;
      continue;
    }
    const std::uint32_t flags = lanes.flags[i];
    if (flags == 0x3f || flags == 0) {
      ++counters.xmas_or_null;
      continue;
    }
    const bool syn = (flags & net::flag_bit(net::TcpFlag::kSyn)) != 0;
    const bool ack = (flags & net::flag_bit(net::TcpFlag::kAck)) != 0;
    if (syn && !ack) {
      const net::Ipv4Address source(lanes.source[i]);
      if (source.is_reserved_source() || source.is_private()) {
        ++counters.spoofed_source;
        continue;
      }
      const auto k = out.count++;
      out.timestamp_us[k] = pending.ts[i];
      out.source[k] = lanes.source[i];
      out.destination[k] = lanes.destination[i];
      out.source_port[k] = static_cast<std::uint16_t>(lanes.source_port[i]);
      out.destination_port[k] = destination_port;
      out.sequence[k] = lanes.sequence[i];
      out.acknowledgment[k] = lanes.acknowledgment[i];
      out.ip_id[k] = static_cast<std::uint16_t>(lanes.ip_id[i]);
      out.window[k] = static_cast<std::uint16_t>(lanes.window[i]);
      out.ttl[k] = static_cast<std::uint8_t>(lanes.ttl[i]);
      ++counters.scan_probes;
      continue;
    }
    if ((syn && ack) || (flags & net::flag_bit(net::TcpFlag::kRst)) != 0) {
      ++counters.backscatter;
      continue;
    }
    ++counters.other_tcp;
  }
}

}  // namespace synscan::telescope::detail
