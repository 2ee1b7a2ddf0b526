// pcapng (next-generation capture) reader, implemented from scratch.
//
// Modern capture tooling (Wireshark, newer tcpdump setups) writes pcapng
// rather than classic pcap; a telescope toolkit has to ingest both. This
// reader handles the block types that carry packets:
//   - Section Header Block (0x0A0D0D0A): byte order, section boundaries
//   - Interface Description Block (1): link type and timestamp
//     resolution (if_tsresol option, default microseconds)
//   - Enhanced Packet Block (6) and the obsolete Simple Packet Block (3)
// Unknown block types are skipped by length, as the spec requires.
// Timestamps are normalized to microseconds, matching `net::RawFrame`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <memory>
#include <span>
#include <vector>

#include "net/packet.h"
#include "pcap/pcap.h"

namespace synscan::pcap {

/// Streaming pcapng reader. Multiple sections per file are supported
/// (each introduced by its own Section Header Block).
class NgReader {
 public:
  /// Opens a pcapng stream; throws `std::runtime_error` when the first
  /// block is not a valid Section Header Block.
  explicit NgReader(std::unique_ptr<std::istream> stream);

  [[nodiscard]] static NgReader open(const std::filesystem::path& path);

  /// Reads a pcapng capture already in memory (a `MappedFile`'s bytes)
  /// without copying it. The bytes must outlive the reader.
  [[nodiscard]] static NgReader over(std::span<const std::uint8_t> bytes);

  /// Reads the next packet (from an EPB or SPB), skipping interleaved
  /// non-packet blocks. Timestamps are normalized to µs; Simple Packet
  /// Blocks, which carry none, get timestamp 0.
  [[nodiscard]] ReadStatus next(net::RawFrame& out);

  /// Drains the stream.
  [[nodiscard]] std::pair<std::vector<net::RawFrame>, ReadStatus> read_all();

  [[nodiscard]] std::uint64_t packets_read() const noexcept { return packets_read_; }
  [[nodiscard]] std::size_t interfaces_seen() const noexcept {
    return interfaces_.size();
  }

 private:
  struct Interface {
    std::uint16_t link_type = 1;
    /// Ticks per second of this interface's timestamps.
    std::uint64_t ticks_per_second = 1'000'000;
  };

  [[nodiscard]] bool read_exact(void* buffer, std::size_t size);
  void parse_interface_block(const std::vector<std::uint8_t>& body);

  std::unique_ptr<std::istream> stream_;
  bool big_endian_ = false;
  std::vector<Interface> interfaces_;
  std::uint64_t packets_read_ = 0;
};

/// True if the bytes start with the pcapng Section Header Block magic
/// (use to dispatch between `Reader` and `NgReader`).
[[nodiscard]] bool looks_like_pcapng(std::span<const std::uint8_t> head);

/// The same test on a file's first bytes. It opens the path, so use the
/// bytes overload on input that can be read only once (a FIFO).
[[nodiscard]] bool looks_like_pcapng(const std::filesystem::path& path);

/// Format-dispatching convenience: reads classic pcap or pcapng.
[[nodiscard]] std::pair<std::vector<net::RawFrame>, ReadStatus> read_any_capture(
    const std::filesystem::path& path);

}  // namespace synscan::pcap
