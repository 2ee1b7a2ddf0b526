// pcapng (next-generation capture) reader, implemented from scratch.
//
// Modern capture tooling (Wireshark, newer tcpdump setups) writes pcapng
// rather than classic pcap; a telescope toolkit has to ingest both. This
// reader handles the block types that carry packets:
//   - Section Header Block (0x0A0D0D0A): byte order, section boundaries
//   - Interface Description Block (1): link type, which must be
//     Ethernet (`require_ethernet`), and timestamp resolution
//     (if_tsresol option, default microseconds)
//   - Enhanced Packet Block (6) and the obsolete Simple Packet Block (3)
// Unknown block types are skipped by length, as the spec requires.
// Timestamps are normalized to microseconds, matching `net::RawFrame`.
// Like `Reader`, it walks one byte window — a `MappedFile` it owns, or
// bytes it borrows — and parses each block in place; only a packet's
// bytes are copied, into the caller's frame. Every block, Section Header
// Blocks included, passes one framing check: a plausible length and a
// matching trailing copy of it. A corrupt block ends the capture with
// kBadRecord, the frames before it kept; that includes an `if_tsresol`
// whose ticks per second do not fit 64 bits and a packet timestamp that
// does not fit `net::TimeUs`. The first defect is reported once, then
// `next` returns kEndOfFile.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "net/packet.h"
#include "pcap/pcap.h"

namespace synscan::pcap {

/// Pull-style pcapng reader. Multiple sections per file are supported
/// (each introduced by its own Section Header Block).
class NgReader {
 public:
  /// Not copyable or movable: the window may live in `file_`, and a
  /// moved-from reader would still view it.
  NgReader(NgReader&&) = delete;

  /// Maps a pcapng file (or reads it whole when it cannot be mapped).
  /// Throws `std::runtime_error` when the file cannot be read or its
  /// first block is not a valid Section Header Block.
  [[nodiscard]] static NgReader open(const std::filesystem::path& path);

  /// Reads a pcapng capture already in memory (a `MappedFile`'s bytes)
  /// without copying it. The bytes must outlive the reader. Throws like
  /// `open`.
  [[nodiscard]] static NgReader over(std::span<const std::uint8_t> bytes);

  /// Reads the next packet (from an EPB or SPB), skipping interleaved
  /// non-packet blocks. Timestamps are normalized to µs; Simple Packet
  /// Blocks, which carry none, get timestamp 0. Throws at an interface
  /// whose link type is not Ethernet, before any of its frames.
  [[nodiscard]] ReadStatus next(net::RawFrame& out);

  /// Drains the capture.
  [[nodiscard]] std::pair<std::vector<net::RawFrame>, ReadStatus> read_all();

  [[nodiscard]] std::size_t interfaces_seen() const noexcept {
    return interfaces_.size();
  }

 private:
  struct Interface {
    /// Ticks per second of this interface's timestamps.
    std::uint64_t ticks_per_second = 1'000'000;
  };

  /// One block framed in place.
  struct Block {
    std::uint32_t type = 0;
    std::span<const std::uint8_t> body;  ///< between the head and the trailing length
  };

  NgReader(MappedFile file, std::span<const std::uint8_t> bytes);

  /// Frames the block at the cursor and steps past it: kOk, kEndOfFile
  /// at the end of the window, kTruncated when the window ends inside
  /// the block, kBadRecord when its lengths disagree. A Section Header
  /// Block's byte-order magic sets the byte order first.
  [[nodiscard]] ReadStatus next_block(Block& block);
  /// `next` without the terminal-status latch.
  [[nodiscard]] ReadStatus read_packet(net::RawFrame& out);
  /// Records one interface; false when its `if_tsresol` is unusable.
  [[nodiscard]] bool parse_interface_block(std::span<const std::uint8_t> body);

  MappedFile file_;  ///< owns the window after `open`; empty after `over`
  std::span<const std::uint8_t> bytes_;  ///< the whole capture window
  std::size_t offset_ = 0;
  bool big_endian_ = false;
  bool done_ = false;
  std::vector<Interface> interfaces_;
};

/// True if the bytes start with the pcapng Section Header Block magic
/// (use to dispatch between `Reader` and `NgReader` over bytes already
/// in hand: input that can be read only once, a FIFO, is read once).
[[nodiscard]] bool looks_like_pcapng(std::span<const std::uint8_t> head);

/// Format-dispatching convenience: reads classic pcap or pcapng.
[[nodiscard]] std::pair<std::vector<net::RawFrame>, ReadStatus> read_any_capture(
    const std::filesystem::path& path);

}  // namespace synscan::pcap
