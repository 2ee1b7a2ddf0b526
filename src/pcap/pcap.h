// Classic libpcap capture-file format, implemented from scratch.
//
// Supports both byte orders and both timestamp resolutions:
//   0xa1b2c3d4 — microsecond timestamps
//   0xa1b23c4d — nanosecond timestamps
// The reader is a pull-style stream designed for telescope-scale files:
// it never loads the whole capture, tolerates a truncated final record
// (common when a capture process is killed), and reports malformed input
// through error codes rather than exceptions on the per-packet path.
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "obs/metrics.h"

namespace synscan::pcap {

/// Data-link types we understand (values from the pcap LINKTYPE registry).
enum class LinkType : std::uint32_t {
  kEthernet = 1,
  kRawIp = 101,
};

/// Global header metadata of an open capture.
struct FileInfo {
  bool big_endian = false;
  bool nanosecond = false;
  std::uint16_t version_major = 2;
  std::uint16_t version_minor = 4;
  std::uint32_t snap_length = 0;
  LinkType link_type = LinkType::kEthernet;
};

/// Why the reader stopped or skipped a record.
enum class ReadStatus {
  kOk,              ///< a frame was produced
  kEndOfFile,       ///< clean end of capture
  kTruncated,       ///< record cut short (capture process died mid-write)
  kBadRecord,       ///< record header inconsistent (corruption)
};

inline constexpr std::size_t kGlobalHeaderSize = 24;
inline constexpr std::size_t kRecordHeaderSize = 16;

/// Parses the 24-byte global header. Returns nullopt on unknown magic;
/// shared by the streaming `Reader` and the mmap-backed `MappedReader`.
[[nodiscard]] std::optional<FileInfo> parse_global_header(
    std::span<const std::uint8_t> header) noexcept;

/// One decoded per-record header, timestamp normalized to µs.
struct RecordHeader {
  net::TimeUs timestamp_us = 0;
  std::uint32_t captured_length = 0;
  std::uint32_t original_length = 0;
};

/// Decodes and sanity-checks a 16-byte record header against `info`.
/// Returns kOk or kBadRecord (inconsistent lengths / impossible
/// sub-second field — the stream has lost framing).
[[nodiscard]] ReadStatus parse_record_header(std::span<const std::uint8_t> record,
                                             const FileInfo& info,
                                             RecordHeader& out) noexcept;

/// A read-only stream over borrowed bytes, for `Reader::over` and
/// `NgReader::over`. The bytes must outlive the stream.
[[nodiscard]] std::unique_ptr<std::istream> borrowed_stream(
    std::span<const std::uint8_t> bytes);

/// Streaming reader over any `std::istream`.
class Reader {
 public:
  /// Opens a capture over an owned stream. Throws `std::runtime_error` if
  /// the global header is missing or carries an unknown magic.
  explicit Reader(std::unique_ptr<std::istream> stream);

  /// Opens a capture file from disk.
  [[nodiscard]] static Reader open(const std::filesystem::path& path);

  /// Reads a capture already in memory (a `MappedFile`'s bytes) without
  /// copying it. The bytes must outlive the reader.
  [[nodiscard]] static Reader over(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const FileInfo& info() const noexcept { return info_; }

  /// Reads the next frame into `out` (timestamp normalized to µs).
  /// kTruncated and kEndOfFile are terminal; kBadRecord aborts too, since
  /// record boundaries can no longer be trusted.
  [[nodiscard]] ReadStatus next(net::RawFrame& out);

  /// Drains the remainder of the stream. Frames whose captured length was
  /// limited by the snap length are still returned (analysis only needs
  /// headers). Returns the frames plus the terminal status.
  [[nodiscard]] std::pair<std::vector<net::RawFrame>, ReadStatus> read_all();

  /// Frames read so far.
  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_read_; }

 private:
  std::unique_ptr<std::istream> stream_;
  FileInfo info_;
  std::uint64_t frames_read_ = 0;
  // Resolved once at construction iff obs is enabled; null otherwise,
  // so the per-record cost with observability off is one branch.
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_truncated_ = nullptr;
  obs::Counter* obs_bad_records_ = nullptr;
};

/// Streaming writer mirroring the reader. Always emits little-endian,
/// microsecond-resolution captures (the most interoperable choice).
class Writer {
 public:
  /// Wraps an owned stream and writes the global header immediately.
  Writer(std::unique_ptr<std::ostream> stream, LinkType link_type = LinkType::kEthernet,
         std::uint32_t snap_length = 65535);

  /// Creates/truncates a capture file on disk.
  [[nodiscard]] static Writer create(const std::filesystem::path& path,
                                     LinkType link_type = LinkType::kEthernet);

  /// Appends one frame. Frames longer than the snap length are truncated
  /// on disk with the original length recorded, exactly as libpcap does.
  void write(const net::RawFrame& frame);

  /// Flushes the underlying stream.
  void flush();

  [[nodiscard]] std::uint64_t frames_written() const noexcept { return frames_written_; }

 private:
  std::unique_ptr<std::ostream> stream_;
  std::uint32_t snap_length_;
  std::uint64_t frames_written_ = 0;
};

/// Convenience: writes `frames` to `path` in one call.
void write_file(const std::filesystem::path& path, std::span<const net::RawFrame> frames,
                LinkType link_type = LinkType::kEthernet);

/// Convenience: reads a whole capture from `path`. Throws on open/magic
/// errors; returns whatever was readable plus the terminal status.
[[nodiscard]] std::pair<std::vector<net::RawFrame>, ReadStatus> read_file(
    const std::filesystem::path& path);

}  // namespace synscan::pcap
