// Classic libpcap capture-file format, implemented from scratch, and
// `MappedFile`, the one way a capture's bytes come into memory.
//
// Supports both byte orders and both timestamp resolutions:
//   0xa1b2c3d4 — microsecond timestamps
//   0xa1b23c4d — nanosecond timestamps
// `Reader` holds a capture as one byte window: the file mapped read-only
// (or, when it cannot be mapped — a FIFO — read whole into a buffer), or
// bytes already in memory. Two walks share its cursor:
//   - `next` decodes one record at a time into a `net::RawFrame`, the
//     reference every faster path is held to;
//   - `scan` walks the records in place, handing each one's timestamp
//     and bytes — pointers straight into the window, no copies — to a
//     consumer inlined into the loop (`core::FrameBatcher::consume`,
//     core/ingest.h). At telescope scale (§3: 45 B packets before any
//     analysis) a per-record call and copy would be the front-end
//     bottleneck once tracking is fast.
// Both tolerate a truncated final record (common when a capture process
// is killed) and report malformed input through status codes rather
// than exceptions on the per-record path. The first defect ends the
// capture: it is reported once, and every later call returns kEndOfFile.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "obs/metrics.h"

namespace synscan::pcap {

/// Data-link types (values from the pcap LINKTYPE registry).
enum class LinkType : std::uint32_t {
  kEthernet = 1,
};

/// Throws `std::runtime_error` naming `link_type` unless it is Ethernet,
/// the one link layer the frame classifier decodes; both readers call it.
void require_ethernet(std::uint32_t link_type);

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

/// Parses the 24-byte global header. Returns nullopt on unknown magic.
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

/// Read-only byte window over a file: mmap(2) for regular files, a bulk
/// read into an owned buffer otherwise. Movable, not copyable; a move
/// keeps the bytes where they are.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only; falls back to reading it into memory when
  /// mapping is unavailable, from the same open descriptor, so input
  /// that can be read only once (a FIFO) arrives whole. Throws
  /// `std::runtime_error` if the file cannot be opened or read.
  [[nodiscard]] static MappedFile open(const std::filesystem::path& path);

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }
  /// True when backed by an actual mmap (false: owned-buffer fallback).
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> fallback_;  ///< owns the bytes when !mapped_
};

namespace detail {

// The next record's header address is `offset + 16 + captured_length`, a
// load-to-use chain through memory: the walk cannot start record n+1
// until record n's length has arrived, which caps a demand-paged walk
// near the per-record load latency. A software prefetch a fixed byte
// distance ahead breaks the chain — the address derives from the
// *current* offset, so it issues immediately, and any distance covering
// a few records keeps the line stream ahead of the walk (~3x measured).
#if defined(__GNUC__) || defined(__clang__)
#define SYNSCAN_WALK_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define SYNSCAN_WALK_PREFETCH(addr) ((void)0)
#endif
inline constexpr std::size_t kWalkPrefetchBytes = 2048;

/// Outcome of one record walk.
struct WalkEnd {
  ReadStatus status = ReadStatus::kEndOfFile;  ///< terminal status at the stop position
  std::uint64_t frames = 0;  ///< records consumed by this walk
  std::uint64_t bytes = 0;   ///< sum of their captured lengths
};

/// The record walk behind `Reader::scan`: invokes
/// `frame(timestamp_us, data, captured_length)` for every record in
/// `bytes[offset, end)`, advancing `offset` past each one before the
/// call. Defined in the header so the consumer inlines into the loop. Record validation is bit-identical to
/// `parse_record_header`: the dominant little-endian layout is decoded
/// inline, big-endian captures take the shared parser.
template <typename F>
WalkEnd scan_records(std::span<const std::uint8_t> bytes, const FileInfo& info,
                     std::size_t& offset, std::size_t end, F&& frame) {
  WalkEnd walk;
  const std::uint8_t* base = bytes.data();
  if (!info.big_endian) {
    // caplen > max(snap, 65535) || caplen > 1<<18  <=>  caplen > the
    // smaller of the two limits.
    const std::uint32_t cap_limit =
        std::min(std::max<std::uint32_t>(info.snap_length, 65535), 1u << 18);
    const std::uint32_t frac_limit = info.nanosecond ? 1'000'000'000u : 1'000'000u;
    for (;;) {
      if (end - offset < kRecordHeaderSize) {
        walk.status = offset == end ? ReadStatus::kEndOfFile : ReadStatus::kTruncated;
        return walk;
      }
      SYNSCAN_WALK_PREFETCH(base + offset + kWalkPrefetchBytes);
      std::uint32_t ts_sec;
      std::uint32_t ts_frac;
      std::uint32_t caplen;
      std::uint32_t origlen;
      std::memcpy(&ts_sec, base + offset, 4);
      std::memcpy(&ts_frac, base + offset + 4, 4);
      std::memcpy(&caplen, base + offset + 8, 4);
      std::memcpy(&origlen, base + offset + 12, 4);
      if (caplen > cap_limit || caplen > origlen || ts_frac >= frac_limit) {
        walk.status = ReadStatus::kBadRecord;
        return walk;
      }
      if (end - offset - kRecordHeaderSize < caplen) {
        walk.status = ReadStatus::kTruncated;
        return walk;
      }
      const auto frac_us = info.nanosecond ? ts_frac / 1000 : ts_frac;
      const auto timestamp_us = static_cast<net::TimeUs>(ts_sec) * net::kMicrosPerSecond +
                                static_cast<net::TimeUs>(frac_us);
      const std::uint8_t* data = base + offset + kRecordHeaderSize;
      offset += kRecordHeaderSize + caplen;
      ++walk.frames;
      walk.bytes += caplen;
      frame(timestamp_us, data, caplen);
    }
  }
  for (;;) {
    if (end - offset < kRecordHeaderSize) {
      walk.status = offset == end ? ReadStatus::kEndOfFile : ReadStatus::kTruncated;
      return walk;
    }
    SYNSCAN_WALK_PREFETCH(base + offset + kWalkPrefetchBytes);
    RecordHeader header;
    if (parse_record_header(bytes.subspan(offset, kRecordHeaderSize), info, header) !=
        ReadStatus::kOk) {
      walk.status = ReadStatus::kBadRecord;
      return walk;
    }
    if (end - offset - kRecordHeaderSize < header.captured_length) {
      walk.status = ReadStatus::kTruncated;
      return walk;
    }
    const std::uint8_t* data = base + offset + kRecordHeaderSize;
    offset += kRecordHeaderSize + header.captured_length;
    ++walk.frames;
    walk.bytes += header.captured_length;
    frame(header.timestamp_us, data, header.captured_length);
  }
}

}  // namespace detail

/// A classic pcap capture held as one byte window, its global header
/// parsed and a cursor on its record region. `next` and `scan` advance
/// the same cursor; the terminal status is reported once, then both
/// return kEndOfFile.
class Reader {
 public:
  /// Not copyable or movable: the window may live in `file_`, and a
  /// moved-from reader would still view it.
  Reader(Reader&&) = delete;

  /// Maps a capture file (or reads it whole when it cannot be mapped).
  /// Throws `std::runtime_error` if the file cannot be read, or if the
  /// global header is missing, carries an unknown magic or names a link
  /// type other than Ethernet.
  [[nodiscard]] static Reader open(const std::filesystem::path& path);

  /// Reads a capture already in memory (a `MappedFile`'s bytes) without
  /// copying it. The bytes must outlive the reader. Throws like `open`.
  [[nodiscard]] static Reader over(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const FileInfo& info() const noexcept { return info_; }
  /// True when `open` mapped the file (false: read whole, or `over`).
  [[nodiscard]] bool mapped() const noexcept { return file_.mapped(); }

  /// Reads the next frame into `out` (timestamp normalized to µs).
  /// kTruncated and kEndOfFile are terminal; kBadRecord aborts too, since
  /// record boundaries can no longer be trusted.
  [[nodiscard]] ReadStatus next(net::RawFrame& out);

  /// Invokes `frame(timestamp_us, data, captured_length)` for every
  /// remaining record, inlined into the walk loop, and returns the
  /// terminal status. `data` points into the window.
  template <typename F>
  [[nodiscard]] ReadStatus scan(F&& frame) {
    if (done_) return ReadStatus::kEndOfFile;
    const auto walk = detail::scan_records(bytes_, info_, offset_, bytes_.size(), frame);
    frames_read_ += walk.frames;
    if (obs_frames_ != nullptr && walk.frames != 0) {
      obs_frames_->add(walk.frames);
      obs_bytes_->add(walk.bytes);
    }
    return finish(walk.status);
  }

  /// Drains the remainder of the capture. Frames whose captured length
  /// was limited by the snap length are still returned (analysis only
  /// needs headers). Returns the frames plus the terminal status.
  [[nodiscard]] std::pair<std::vector<net::RawFrame>, ReadStatus> read_all();

  /// Frames read so far, by either walk.
  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_read_; }

 private:
  Reader(MappedFile file, std::span<const std::uint8_t> bytes);

  /// Ends the walk at `status`, counting a defect once.
  ReadStatus finish(ReadStatus status) noexcept;

  MappedFile file_;  ///< owns the window after `open`; empty after `over`
  std::span<const std::uint8_t> bytes_;  ///< the whole capture window
  FileInfo info_;
  std::size_t offset_ = kGlobalHeaderSize;
  std::uint64_t frames_read_ = 0;
  bool done_ = false;
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
