// Zero-copy classic-pcap reader over a memory-mapped capture.
//
// `pcap::Reader` pulls one record at a time through `std::istream`: two
// buffered reads plus a per-record byte-vector copy. At telescope scale
// (§3: 45 B packets before any analysis) that per-record overhead is the
// front-end bottleneck once tracking is fast. `MappedReader` maps the
// whole file read-only and yields `net::FrameView`s that point directly
// into the mapping — no stream calls, no copies — in caller-sized
// batches. Input that cannot be mapped (pipes, non-regular files, or a
// failed mmap) degrades gracefully to a single bulk read into an owned
// buffer; the record walk is identical either way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.h"
#include "obs/metrics.h"
#include "pcap/pcap.h"

namespace synscan::pcap {

/// Read-only byte window over a file: mmap(2) for regular files, a bulk
/// read into an owned buffer otherwise. Movable, not copyable.
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

/// One record-aligned byte range of a capture, produced by
/// `partition_records`: scanning `[begin, end)` yields complete records
/// and starts exactly where the previous chunk's last record ended.
struct ScanChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Splits the record region of a classic-pcap byte window into up to
/// `max_chunks` contiguous, record-aligned ranges of roughly equal size,
/// so each can be scanned by an independent `ChunkReader` (the parallel
/// cold-ingest path in core/ingest.cpp). Classic pcap has no sync
/// markers, so boundaries come from one serial walk over the 16-byte
/// record headers — a few cycles per record, far below decode+classify
/// cost. The walk stops splitting at the first implausible header
/// (truncation or lost framing) and extends the final chunk to the end
/// of the file: the chunk scanner re-derives the exact terminal status
/// there, byte-for-byte like the serial reader. Always returns at least
/// one chunk covering `[kGlobalHeaderSize, bytes.size())`.
[[nodiscard]] std::vector<ScanChunk> partition_records(
    std::span<const std::uint8_t> bytes, const FileInfo& info, std::size_t max_chunks);

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

/// Outcome of one bulk record walk.
struct WalkEnd {
  /// kOk: the sink asked to pause; otherwise the terminal status at the
  /// stop position.
  ReadStatus status = ReadStatus::kOk;
  std::uint64_t frames = 0;  ///< records consumed by this walk
  std::uint64_t bytes = 0;   ///< sum of their captured lengths
};

/// Core record walk shared by `MappedReader`, `ChunkReader` and the
/// fused scan-and-classify loop (core/ingest.cpp): invokes
/// `frame(timestamp_us, data, captured_length) -> bool` for every record
/// in `bytes[offset, end)`, advancing `offset` past each one consumed; a
/// false return pauses the walk (the record IS consumed). Defined in the
/// header so the sink inlines into the loop. Record validation is
/// bit-identical to `parse_record_header`: the dominant little-endian
/// layout is decoded inline, big-endian captures take the shared parser.
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
      if (!frame(timestamp_us, data, caplen)) return walk;
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
    if (!frame(header.timestamp_us, data, header.captured_length)) return walk;
  }
}

}  // namespace detail

/// Scans one `ScanChunk` of a capture window. Same status contract as
/// `MappedReader::next_batch`, scoped to the chunk: kEndOfFile means the
/// chunk is exhausted (its last record ends exactly at `chunk.end`);
/// kTruncated / kBadRecord surface defects, which `partition_records`
/// confines to the final chunk. Holds only views — the `MappedReader`
/// (or `MappedFile`) owning the bytes must outlive every chunk reader.
/// Each instance is independent, so chunks can be scanned from separate
/// threads; the pcap.* metric counters it bumps are atomic.
class ChunkReader {
 public:
  ChunkReader(std::span<const std::uint8_t> bytes, const FileInfo& info,
              ScanChunk chunk) noexcept;

  /// Clears `out` and appends up to `max_frames` views; same partial-
  /// batch / owed-status contract as `MappedReader::next_batch`.
  [[nodiscard]] ReadStatus next_batch(std::vector<net::FrameView>& out,
                                      std::size_t max_frames);

  /// Fused scan: invokes `frame(timestamp_us, data, captured_length)`
  /// for every remaining record, inlined into the walk loop — no view
  /// staging between the record walk and the consumer. Returns the
  /// chunk's terminal status directly (kEndOfFile once exhausted). Do
  /// not interleave with `next_batch`.
  template <typename F>
  [[nodiscard]] ReadStatus scan(F&& frame) {
    if (done_) return ReadStatus::kEndOfFile;
    done_ = true;
    const auto walk =
        detail::scan_records(bytes_, info_, offset_, end_,
                             [&frame](net::TimeUs timestamp_us, const std::uint8_t* data,
                                      std::uint32_t captured_length) {
                               frame(timestamp_us, data, captured_length);
                               return true;
                             });
    frames_read_ += walk.frames;
    if (obs_frames_ != nullptr && walk.frames != 0) {
      obs_frames_->add(walk.frames);
      obs_bytes_->add(walk.bytes);
    }
    if (walk.status == ReadStatus::kTruncated && obs_truncated_ != nullptr) {
      obs_truncated_->add();
    }
    if (walk.status == ReadStatus::kBadRecord && obs_bad_records_ != nullptr) {
      obs_bad_records_->add();
    }
    return walk.status;
  }

  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_read_; }

 private:
  std::span<const std::uint8_t> bytes_;  ///< the whole capture window
  FileInfo info_;
  std::size_t offset_;
  std::size_t end_;
  std::uint64_t frames_read_ = 0;
  bool done_ = false;
  std::optional<ReadStatus> pending_;
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_truncated_ = nullptr;
  obs::Counter* obs_bad_records_ = nullptr;
};

/// Batch-oriented reader over a `MappedFile` holding a classic pcap
/// capture. Mirrors `Reader`'s status contract: a terminal status
/// (kEndOfFile / kTruncated / kBadRecord) is reported exactly once;
/// subsequent calls return kEndOfFile.
class MappedReader {
 public:
  /// Throws `std::runtime_error` when the global header is missing or
  /// carries an unknown magic.
  explicit MappedReader(MappedFile file);

  [[nodiscard]] static MappedReader open(const std::filesystem::path& path);

  [[nodiscard]] const FileInfo& info() const noexcept { return info_; }
  [[nodiscard]] bool mapped() const noexcept { return file_.mapped(); }
  /// Total capture size in bytes (mapped or buffered).
  [[nodiscard]] std::uint64_t byte_size() const noexcept { return file_.bytes().size(); }
  /// The whole capture window (global header included). Valid while the
  /// reader lives; `ChunkReader`s scanning it must not outlive it.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return file_.bytes();
  }
  /// Splits the record region into up to `max_chunks` record-aligned
  /// ranges (see `partition_records`). Independent of the read cursor.
  [[nodiscard]] std::vector<ScanChunk> partition(std::size_t max_chunks) const {
    return partition_records(file_.bytes(), info_, max_chunks);
  }

  /// Yields the next frame as a view into the mapping.
  [[nodiscard]] ReadStatus next(net::FrameView& out);

  /// Clears `out` and appends up to `max_frames` views. Returns kOk when
  /// at least one frame was produced; a terminal status interrupting a
  /// partially filled batch is delivered by the *next* call, so no frame
  /// and no status is ever lost. Do not interleave with `next()`.
  [[nodiscard]] ReadStatus next_batch(std::vector<net::FrameView>& out,
                                      std::size_t max_frames);

  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_read_; }

 private:
  MappedFile file_;
  FileInfo info_;
  std::size_t offset_ = kGlobalHeaderSize;
  std::uint64_t frames_read_ = 0;
  bool done_ = false;  ///< a terminal status has been reported
  std::optional<ReadStatus> pending_;  ///< terminal status owed after a partial batch
  // Resolved once at construction iff obs is enabled; null otherwise.
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_truncated_ = nullptr;
  obs::Counter* obs_bad_records_ = nullptr;
};

}  // namespace synscan::pcap
