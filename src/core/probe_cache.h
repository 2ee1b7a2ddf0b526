// Columnar probe cache (`.spc`): decode a capture once, replay probes.
//
// A capture's sensor verdict never changes between runs, but the decode
// dominates replay time. After the first pass the ingest driver persists
// every scan probe — plus the sensor counter histogram and the reader's
// terminal status — in a compact little-endian columnar file next to the
// capture. Later runs stream probes straight out of the cache and skip
// frame decode and classification entirely.
//
// Layout (all integers little-endian):
//   header (136 bytes):
//     u32 magic "spc1"        u32 version (=2)
//     u64 source_size         u64 source_mtime_ns
//     u64 frame_count         u64 probe_count
//     u32 terminal_status     u32 codec (=1, kCacheCodecDeltaVarint)
//     u64 x 10 sensor counters (SensorCounters field order)
//     u64 checksum            FNV-1a (64-bit words) over every chunk byte
//   chunks, until probe_count rows are consumed:
//     u64 row_count, then the ten probe columns back-to-back in
//     ProbeBatch field order (timestamp u64; source, destination,
//     sequence, acknowledgment u32; ports, ip_id, window u16; ttl u8).
//     The three high-entropy-but-correlated columns (timestamp_us,
//     source, destination) are each stored as `u64 byte_length` + a
//     zigzag-LEB128 stream of row-over-row deltas (first delta is
//     against 0, so every chunk decodes standalone); the remaining seven
//     columns are plain little-endian arrays.
//
// The writer normalizes chunking to a fixed row count per chunk
// (kCacheRowsPerChunk), independent of how the producer batched its
// appends — the cache bytes are a pure function of the probe stream and
// never depend on a producer's batch boundaries (pinned by
// tests/integration/ingest_differential_test.cpp).
//
// Validity = magic + version + codec + source identity (byte size and
// mtime in nanoseconds) + the header's accounting identity + chunk
// framing + checksum. The checksum covers only the chunk bytes, so the
// header's counters are held to what every real cache satisfies: each
// frame lands in exactly one sensor counter (the ten sum to
// frame_count) and every scan probe is a row (scan_probes ==
// probe_count). Any mismatch — including a file of an older layout (v1,
// or v2 with the retired raw codec 0) — invalidates the cache; callers
// fall back to decoding and rewrite it. The cache is disposable, so
// there are no legacy readers. `ProbeCacheReader::open` and
// `cache_verify` run the same validation.
//
// The sidecar discipline. This module also owns what the `.spc` and
// the `.spr` rollup store (core/rollup_store.h) share, so both files
// are read and written one way:
//   - `SidecarWriter`, the one commit: bytes go to a temp file named for
//     this writer alone (`<target>.<pid>.<n>.tmp`, in the target's
//     directory so the rename is atomic); the header is patched last,
//     the file flushed and renamed into place. Readers see the old file
//     or the whole new one, and two writers of one file each commit a
//     whole file (the last rename wins). Any failure, and destruction
//     without a commit, removes the temp file. A crashed writer leaves
//     its uniquely named temp file behind; no reader ever opens it.
//   - `map_sidecar`, the one read: a path that is not a regular file is
//     rejected without being read; anything else is mapped read-only.
//     Files are never written in place, so a mapping stays whole.
//   - `ByteWriter` / `ByteReader`, the little-endian field codec (the
//     reader bounds every read and every stored count by the bytes
//     left), with `put_sensor` / `get_sensor` for the ten sensor
//     counters that the `.spc` header and the `.spr` payload both carry.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/endian.h"
#include "pcap/pcap.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"

namespace synscan::core {

/// The chunk encoding stored at header offset 44: delta+zigzag LEB128
/// on timestamp/source/destination. The only codec read or written.
inline constexpr std::uint32_t kCacheCodecDeltaVarint = 1;

/// Rows per chunk the writer emits (the last chunk may be shorter).
inline constexpr std::size_t kCacheRowsPerChunk = 65536;

/// FNV-1a offset basis: the hash state before any byte.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a over `bytes` taken as little-endian 64-bit words, the tail
/// word zero-padded, continuing from `state`. Word-at-a-time keeps the
/// validating pass (which hashes a whole `.spc` before releasing a
/// single probe) at one multiply per 8 bytes instead of per byte. The
/// `.spc` chunk checksum; the `.spr` rollup store checksums its payload
/// with it too.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                  std::uint64_t state = kFnvOffset) noexcept;

// --- the sidecar discipline (see the file comment) -------------------

/// Appends little-endian fields to an owned byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { net::store_le16(grow(2), v); }
  void u32(std::uint32_t v) { net::store_le32(grow(4), v); }
  void u64(std::uint64_t v) { net::store_le64(grow(8), v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Appends `n` zero bytes and returns where they start, for a run of
  /// fixed-width fields stored in bulk; the pointer dies at the next
  /// append.
  std::uint8_t* grow(std::size_t n) {
    const auto at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  /// Sizes the buffer for `n` bytes in all, so a writer that knows its
  /// size in advance appends without reallocating.
  void reserve(std::size_t n) { out_.reserve(n); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

/// Thrown by `ByteReader` on any read past its end; decoders catch it
/// and take their fallback, so callers only ever see "no file".
struct ParseError {};

/// Reads little-endian fields from a byte window, never past its end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint16_t u16() {
    need(2);
    const auto v = net::load_le16(p_);
    p_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    const auto v = net::load_le32(p_);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const auto v = net::load_le64(p_);
    p_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Consumes the next `n` bytes and returns where they start, for a
  /// run of fixed-width fields read in bulk.
  const std::uint8_t* take(std::size_t n) {
    need(n);
    const auto* at = p_;
    p_ += n;
    return at;
  }

  /// A stored element count (u64; `count32` for a u32 field),
  /// sanity-bounded by the remaining bytes so a corrupt length cannot
  /// drive a multi-gigabyte reserve. `min_bytes_each` must be nonzero.
  std::size_t count(std::size_t min_bytes_each) { return bounded(u64(), min_bytes_each); }
  std::size_t count32(std::size_t min_bytes_each) { return bounded(u32(), min_bytes_each); }

  [[nodiscard]] bool exhausted() const noexcept { return p_ == end_; }

 private:
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n) throw ParseError{};
  }

  std::size_t bounded(std::uint64_t n, std::size_t min_bytes_each) const {
    if (n > static_cast<std::uint64_t>(end_ - p_) / min_bytes_each) throw ParseError{};
    return static_cast<std::size_t>(n);
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// The ten sensor counters as u64s in `SensorCounters` field order.
void put_sensor(ByteWriter& out, const telescope::SensorCounters& sensor);
void get_sensor(ByteReader& in, telescope::SensorCounters& sensor);

/// Maps the sidecar file at `path` read-only into `file`. Returns the
/// defect, or nullptr: a path that is not a regular file is rejected
/// without being opened.
[[nodiscard]] const char* map_sidecar(const std::filesystem::path& path,
                                      pcap::MappedFile& file);

/// Writes one sidecar file through a temp file of its own and commits
/// it with an atomic rename (see the file comment).
class SidecarWriter {
 public:
  /// Creates the temp file beside `target`. Throws `std::runtime_error`
  /// when it cannot be created (say, the directory does not exist).
  explicit SidecarWriter(std::filesystem::path target);
  /// Removes the temp file unless it was committed.
  ~SidecarWriter();
  SidecarWriter(const SidecarWriter&) = delete;
  SidecarWriter& operator=(const SidecarWriter&) = delete;

  /// Appends `bytes`; a failed write fails the commit.
  void append(std::span<const std::uint8_t> bytes);

  /// Overwrites the file's first `header.size()` bytes (the header is
  /// written last, once the body is known), flushes, and renames the
  /// temp file over the target. False — after removing the temp file —
  /// when any step failed; sidecars are best-effort and never fail a run.
  [[nodiscard]] bool commit(std::span<const std::uint8_t> header = {});

 private:
  std::filesystem::path target_;
  std::filesystem::path temp_;
  std::FILE* file_ = nullptr;
  bool ok_ = true;
};

// --- the probe cache --------------------------------------------------

/// What ties a cache file to its source capture.
struct CacheIdentity {
  std::uint64_t source_size = 0;
  std::uint64_t source_mtime_ns = 0;
};

/// Stats the source capture as a cache identity; nullopt when the path
/// is not a regular file (streams and FIFOs are never cached).
[[nodiscard]] std::optional<CacheIdentity> cache_identity(
    const std::filesystem::path& source);

/// Header fields of a cache file, as stored (no chunk validation).
struct CacheFileInfo {
  std::uint32_t version = 0;
  std::uint32_t codec = 0;
  std::uint64_t source_size = 0;
  std::uint64_t source_mtime_ns = 0;
  std::uint64_t frame_count = 0;
  std::uint64_t probe_count = 0;
  pcap::ReadStatus terminal_status = pcap::ReadStatus::kEndOfFile;
  telescope::SensorCounters sensor;
  std::uint64_t checksum = 0;
  std::uint64_t file_size = 0;
};

/// Parses just the header. nullopt when the file is missing, too short,
/// or not an spc file; any version and codec are reported as stored.
/// Powers the `synscan cache stat` subcommand.
[[nodiscard]] std::optional<CacheFileInfo> cache_stat(const std::filesystem::path& path);

/// Outcome of a full offline validation pass (`synscan cache verify`).
struct CacheVerifyReport {
  bool ok = false;
  std::string error;  ///< first defect found; empty when ok
  std::uint64_t chunks = 0;
  std::uint64_t rows = 0;
};

/// Runs the validation a replay runs — header, its accounting identity,
/// optional source identity, chunk framing, checksum — and reports the
/// first defect as text instead of silently falling back.
[[nodiscard]] CacheVerifyReport cache_verify(
    const std::filesystem::path& path,
    const std::optional<CacheIdentity>& expected = std::nullopt);

/// Streaming writer. Appended batches are restaged into fixed-row chunks
/// (kCacheRowsPerChunk) so the file bytes do not depend on the caller's
/// batch boundaries; `commit` flushes the tail chunk, patches the header
/// and renames the temp file into place. Destruction without a commit
/// removes the temp file.
class ProbeCacheWriter {
 public:
  /// Starts writing a temp file beside `path`. Throws when it cannot be
  /// created.
  ProbeCacheWriter(const std::filesystem::path& path, const CacheIdentity& identity);
  ProbeCacheWriter(const ProbeCacheWriter&) = delete;
  ProbeCacheWriter& operator=(const ProbeCacheWriter&) = delete;

  /// Stages one `ProbeBatch`, emitting every full fixed-row chunk.
  void append(const telescope::ProbeBatch& batch);

  /// Finalizes header + checksum and renames into place. Returns false
  /// (after cleaning up the temp file) when any write failed — a cache
  /// is best-effort and must never fail the run.
  [[nodiscard]] bool commit(std::uint64_t frame_count, pcap::ReadStatus terminal_status,
                            const telescope::SensorCounters& sensor);

 private:
  void emit_chunk(std::size_t begin, std::size_t rows);
  void flush_staging(bool final_flush);

  SidecarWriter file_;
  std::vector<std::uint8_t> scratch_;
  telescope::ProbeBatch staging_;
  std::uint64_t probe_count_ = 0;
  std::uint64_t checksum_ = kFnvOffset;
  CacheIdentity identity_;
};

/// Validating reader over a mapped cache file. `open` fully verifies the
/// file (identity + checksum + framing) before the first chunk is handed
/// out, so a torn or stale cache can never leak probes into a run.
class ProbeCacheReader {
 public:
  /// Returns nullopt when the file is missing, unreadable, or fails any
  /// validity check.
  [[nodiscard]] static std::optional<ProbeCacheReader> open(
      const std::filesystem::path& path, const CacheIdentity& expected);

  /// Clears `out` and fills it with the next chunk; false at end.
  bool next_chunk(telescope::ProbeBatch& out);

  [[nodiscard]] const telescope::SensorCounters& sensor() const noexcept {
    return info_.sensor;
  }
  [[nodiscard]] std::uint64_t frame_count() const noexcept { return info_.frame_count; }
  [[nodiscard]] std::uint64_t probe_count() const noexcept { return info_.probe_count; }
  [[nodiscard]] pcap::ReadStatus terminal_status() const noexcept {
    return info_.terminal_status;
  }

 private:
  ProbeCacheReader() = default;

  pcap::MappedFile file_;
  std::size_t offset_ = 0;  ///< cursor into the chunk region
  CacheFileInfo info_;
};

}  // namespace synscan::core
