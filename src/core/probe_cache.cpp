#include "core/probe_cache.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "net/endian.h"

namespace synscan::core {
namespace {

constexpr std::uint32_t kMagic = 0x31637073;  // "spc1" on disk
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = 136;
/// Bytes per row of the seven fixed-width columns: ports (2 + 2),
/// sequence and acknowledgment (4 + 4), ip_id and window (2 + 2), ttl.
constexpr std::size_t kFixedTailBytes = 2 + 2 + 4 + 4 + 2 + 2 + 1;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Bulk column copy: the on-disk layout is little-endian, so on a
/// little-endian host each column is one memcpy; big-endian hosts take
/// the per-element load/store path.
template <typename T>
void copy_column_out(const std::uint8_t*& p, std::size_t rows, std::vector<T>& out) {
  out.resize(rows);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), p, rows * sizeof(T));
    p += rows * sizeof(T);
  } else {
    for (std::size_t i = 0; i < rows; ++i, p += sizeof(T)) {
      if constexpr (sizeof(T) == 8) {
        out[i] = static_cast<T>(net::load_le64(p));
      } else if constexpr (sizeof(T) == 4) {
        out[i] = static_cast<T>(net::load_le32(p));
      } else if constexpr (sizeof(T) == 2) {
        out[i] = static_cast<T>(net::load_le16(p));
      } else {
        out[i] = static_cast<T>(*p);
      }
    }
  }
}

template <typename T>
void append_raw_column(std::vector<std::uint8_t>& out, const T* data, std::size_t rows) {
  const auto at = out.size();
  out.resize(at + rows * sizeof(T));
  std::uint8_t* p = out.data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, data, rows * sizeof(T));
  } else {
    for (std::size_t i = 0; i < rows; ++i, p += sizeof(T)) {
      if constexpr (sizeof(T) == 8) {
        net::store_le64(p, static_cast<std::uint64_t>(data[i]));
      } else if constexpr (sizeof(T) == 4) {
        net::store_le32(p, static_cast<std::uint32_t>(data[i]));
      } else if constexpr (sizeof(T) == 2) {
        net::store_le16(p, static_cast<std::uint16_t>(data[i]));
      } else {
        *p = static_cast<std::uint8_t>(data[i]);
      }
    }
  }
}

// --- zigzag LEB128 ---------------------------------------------------

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Bounds-checked LEB128 decode; false when the stream ends mid-varint
/// or the value would not fit 64 bits.
inline bool get_varint(const std::uint8_t*& p, const std::uint8_t* end,
                       std::uint64_t& v) {
  v = 0;
  unsigned shift = 0;
  while (p < end && shift < 64) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

/// Appends one delta+zigzag-varint column: `u64 byte_length` followed by
/// the LEB128 stream of row-over-row deltas (row 0 against 0, so the
/// chunk decodes standalone).
template <typename T>
void append_delta_column(std::vector<std::uint8_t>& out, const T* data,
                         std::size_t rows) {
  const auto length_at = out.size();
  out.resize(length_at + 8);
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto cur = static_cast<std::int64_t>(static_cast<std::uint64_t>(data[i]));
    put_varint(out, zigzag(cur - prev));
    prev = cur;
  }
  net::store_le64(out.data() + length_at, out.size() - length_at - 8);
}

/// Bounds-checked inverse of append_delta_column. The cursor never moves
/// past `end` even on malformed input; false on any inconsistency
/// (short length field, truncated stream, trailing garbage).
template <typename T>
bool decode_delta_column(const std::uint8_t*& p, const std::uint8_t* end,
                         std::size_t rows, std::vector<T>& out) {
  if (static_cast<std::size_t>(end - p) < 8) return false;
  const auto length = net::load_le64(p);
  p += 8;
  if (static_cast<std::uint64_t>(end - p) < length) return false;
  const std::uint8_t* const stream_end = p + length;
  out.resize(rows);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t z;
    if (!get_varint(p, stream_end, z)) return false;
    prev += static_cast<std::uint64_t>(unzigzag(z));
    out[i] = static_cast<T>(prev);
  }
  if (p != stream_end) return false;
  return true;
}

// --- chunk encode/decode ---------------------------------------------

/// Serializes `rows` probes starting at `begin` as one chunk.
void encode_chunk(const telescope::ProbeBatch& batch, std::size_t begin,
                  std::size_t rows, std::vector<std::uint8_t>& out) {
  out.clear();
  out.resize(8);
  net::store_le64(out.data(), rows);
  append_delta_column(out, batch.timestamp_us.data() + begin, rows);
  append_delta_column(out, batch.source.data() + begin, rows);
  append_delta_column(out, batch.destination.data() + begin, rows);
  append_raw_column(out, batch.source_port.data() + begin, rows);
  append_raw_column(out, batch.destination_port.data() + begin, rows);
  append_raw_column(out, batch.sequence.data() + begin, rows);
  append_raw_column(out, batch.acknowledgment.data() + begin, rows);
  append_raw_column(out, batch.ip_id.data() + begin, rows);
  append_raw_column(out, batch.window.data() + begin, rows);
  append_raw_column(out, batch.ttl.data() + begin, rows);
}

/// Decodes the chunk body at `p` (past the row count) into `out`,
/// advancing `p` past everything consumed. Fully bounds-checked: a
/// malformed body returns false without ever reading past `end`.
bool decode_chunk_body(const std::uint8_t*& p, const std::uint8_t* end,
                       std::size_t rows, telescope::ProbeBatch& out) {
  if (!decode_delta_column(p, end, rows, out.timestamp_us) ||
      !decode_delta_column(p, end, rows, out.source) ||
      !decode_delta_column(p, end, rows, out.destination)) {
    return false;
  }
  if (static_cast<std::size_t>(end - p) < rows * kFixedTailBytes) return false;
  copy_column_out(p, rows, out.source_port);
  copy_column_out(p, rows, out.destination_port);
  copy_column_out(p, rows, out.sequence);
  copy_column_out(p, rows, out.acknowledgment);
  copy_column_out(p, rows, out.ip_id);
  copy_column_out(p, rows, out.window);
  copy_column_out(p, rows, out.ttl);
  return true;
}

void encode_header(std::uint8_t* p, const CacheIdentity& identity,
                   std::uint64_t frame_count, std::uint64_t probe_count,
                   pcap::ReadStatus terminal_status,
                   const telescope::SensorCounters& sensor, std::uint64_t checksum) {
  net::store_le32(p, kMagic);
  net::store_le32(p + 4, kVersion);
  net::store_le64(p + 8, identity.source_size);
  net::store_le64(p + 16, identity.source_mtime_ns);
  net::store_le64(p + 24, frame_count);
  net::store_le64(p + 32, probe_count);
  net::store_le32(p + 40, static_cast<std::uint32_t>(terminal_status));
  net::store_le32(p + 44, kCacheCodecDeltaVarint);
  net::store_le64(p + 48, sensor.scan_probes);
  net::store_le64(p + 56, sensor.backscatter);
  net::store_le64(p + 64, sensor.xmas_or_null);
  net::store_le64(p + 72, sensor.other_tcp);
  net::store_le64(p + 80, sensor.udp);
  net::store_le64(p + 88, sensor.icmp);
  net::store_le64(p + 96, sensor.not_monitored);
  net::store_le64(p + 104, sensor.ingress_blocked);
  net::store_le64(p + 112, sensor.malformed);
  net::store_le64(p + 120, sensor.spoofed_source);
  net::store_le64(p + 128, checksum);
}

/// Raw header parse: everything `cache_stat` can report. Only rejects
/// what makes the fields meaningless (short file, wrong magic, a
/// terminal status outside the enum).
const char* parse_header(std::span<const std::uint8_t> bytes, CacheFileInfo& info) {
  if (bytes.size() < kHeaderSize) return "file shorter than the spc header";
  const std::uint8_t* h = bytes.data();
  if (net::load_le32(h) != kMagic) return "bad magic (not an spc file)";
  info.version = net::load_le32(h + 4);
  info.source_size = net::load_le64(h + 8);
  info.source_mtime_ns = net::load_le64(h + 16);
  info.frame_count = net::load_le64(h + 24);
  info.probe_count = net::load_le64(h + 32);
  const auto status = net::load_le32(h + 40);
  if (status > static_cast<std::uint32_t>(pcap::ReadStatus::kBadRecord)) {
    return "corrupt terminal status";
  }
  info.terminal_status = static_cast<pcap::ReadStatus>(status);
  info.codec = net::load_le32(h + 44);
  info.sensor.scan_probes = net::load_le64(h + 48);
  info.sensor.backscatter = net::load_le64(h + 56);
  info.sensor.xmas_or_null = net::load_le64(h + 64);
  info.sensor.other_tcp = net::load_le64(h + 72);
  info.sensor.udp = net::load_le64(h + 80);
  info.sensor.icmp = net::load_le64(h + 88);
  info.sensor.not_monitored = net::load_le64(h + 96);
  info.sensor.ingress_blocked = net::load_le64(h + 104);
  info.sensor.malformed = net::load_le64(h + 112);
  info.sensor.spoofed_source = net::load_le64(h + 120);
  info.checksum = net::load_le64(h + 128);
  info.file_size = bytes.size();
  return nullptr;
}

/// Structural acceptance for replay: does this reader understand the
/// file at all? Any other version or codec — an older layout or a
/// future one — reads as "no cache", never as garbage probes.
const char* check_header(const CacheFileInfo& info) {
  if (info.version != kVersion) return "unsupported version";
  if (info.codec != kCacheCodecDeltaVarint) return "unknown codec";
  // Every encoding spends well over one byte per row, so a probe count
  // beyond the file size is corrupt; it also bounds the chunk-size
  // arithmetic below against overflow.
  if (info.probe_count > info.file_size) return "probe count exceeds file size";
  if (info.sensor.scan_probes != info.probe_count) {
    return "probe count disagrees with sensor counters";
  }
  return nullptr;
}

/// Walks and checksums the chunk region. A torn write must read as "no
/// cache", not as partial data, so every framing field is validated
/// before anything downstream trusts it.
const char* walk_chunks(std::span<const std::uint8_t> bytes, const CacheFileInfo& info,
                        std::uint64_t& chunks_seen, std::uint64_t& rows_seen) {
  chunks_seen = 0;
  rows_seen = 0;
  std::uint64_t checksum = kFnvOffset;
  std::size_t offset = kHeaderSize;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < 8) return "truncated chunk header";
    const auto rows = net::load_le64(bytes.data() + offset);
    if (rows == 0 || rows > info.probe_count) return "implausible chunk row count";
    // Three length-prefixed varint streams, then the fixed-width tail.
    std::size_t at = offset + 8;
    for (int column = 0; column < 3; ++column) {
      if (bytes.size() - at < 8) return "truncated column length";
      const auto length = net::load_le64(bytes.data() + at);
      at += 8;
      if (bytes.size() - at < length) return "truncated compressed column";
      at += static_cast<std::size_t>(length);
    }
    if (bytes.size() - at < rows * kFixedTailBytes) return "truncated column";
    const std::size_t body = at + rows * kFixedTailBytes - (offset + 8);
    checksum = fnv1a(bytes.subspan(offset, 8 + body), checksum);
    ++chunks_seen;
    rows_seen += rows;
    offset += 8 + body;
  }
  if (rows_seen != info.probe_count) return "row total disagrees with header";
  if (checksum != info.checksum) return "checksum mismatch";
  return nullptr;
}

}  // namespace

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t state) noexcept {
  const std::size_t words = bytes.size() / 8;
  const std::uint8_t* p = bytes.data();
  for (std::size_t i = 0; i < words; ++i, p += 8) {
    state ^= net::load_le64(p);
    state *= kFnvPrime;
  }
  const std::size_t tail = bytes.size() % 8;
  if (tail != 0) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < tail; ++i) {
      word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    state ^= word;
    state *= kFnvPrime;
  }
  return state;
}

std::optional<CacheIdentity> cache_identity(const std::filesystem::path& source) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(source, ec) || ec) return std::nullopt;
  const auto size = std::filesystem::file_size(source, ec);
  if (ec) return std::nullopt;
  const auto mtime = std::filesystem::last_write_time(source, ec);
  if (ec) return std::nullopt;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      mtime.time_since_epoch())
                      .count();
  CacheIdentity identity;
  identity.source_size = size;
  identity.source_mtime_ns = static_cast<std::uint64_t>(ns);
  return identity;
}

std::optional<CacheFileInfo> cache_stat(const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) return std::nullopt;
  pcap::MappedFile file;
  try {
    file = pcap::MappedFile::open(path);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  CacheFileInfo info;
  if (parse_header(file.bytes(), info) != nullptr) return std::nullopt;
  return info;
}

CacheVerifyReport cache_verify(const std::filesystem::path& path,
                               const std::optional<CacheIdentity>& expected) {
  CacheVerifyReport report;
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    report.error = "not a regular file";
    return report;
  }
  pcap::MappedFile file;
  try {
    file = pcap::MappedFile::open(path);
  } catch (const std::exception&) {
    report.error = "cannot open file";
    return report;
  }
  const auto bytes = file.bytes();
  CacheFileInfo info;
  if (const char* err = parse_header(bytes, info)) {
    report.error = err;
    return report;
  }
  if (const char* err = check_header(info)) {
    report.error = err;
    return report;
  }
  if (expected && (info.source_size != expected->source_size ||
                   info.source_mtime_ns != expected->source_mtime_ns)) {
    report.error = "stale: source capture changed since the cache was cut";
    return report;
  }
  if (const char* err = walk_chunks(bytes, info, report.chunks, report.rows)) {
    report.error = err;
    return report;
  }
  report.ok = true;
  return report;
}

ProbeCacheWriter::ProbeCacheWriter(std::filesystem::path path,
                                   const CacheIdentity& identity)
    : path_(std::move(path)),
      tmp_path_(path_.native() + ".tmp"),
      stream_(tmp_path_, std::ios::binary | std::ios::trunc),
      checksum_(kFnvOffset),
      identity_(identity) {
  if (!stream_.is_open()) {
    throw std::runtime_error("probe cache: cannot create " + tmp_path_.string());
  }
  const std::vector<char> placeholder(kHeaderSize, 0);
  stream_.write(placeholder.data(), static_cast<std::streamsize>(placeholder.size()));
  open_ = true;
}

ProbeCacheWriter::~ProbeCacheWriter() { abandon(); }

void ProbeCacheWriter::emit_chunk(std::size_t begin, std::size_t rows) {
  encode_chunk(staging_, begin, rows, scratch_);
  checksum_ = fnv1a(scratch_, checksum_);
  probe_count_ += rows;
  stream_.write(reinterpret_cast<const char*>(scratch_.data()),
                static_cast<std::streamsize>(scratch_.size()));
}

void ProbeCacheWriter::flush_staging(bool final_flush) {
  std::size_t begin = 0;
  while (staging_.size() - begin >= kCacheRowsPerChunk) {
    emit_chunk(begin, kCacheRowsPerChunk);
    begin += kCacheRowsPerChunk;
  }
  if (final_flush && staging_.size() > begin) {
    emit_chunk(begin, staging_.size() - begin);
    begin = staging_.size();
  }
  if (begin == 0) return;
  const auto drop = [begin](auto& column) {
    column.erase(column.begin(),
                 column.begin() + static_cast<std::ptrdiff_t>(begin));
  };
  drop(staging_.timestamp_us);
  drop(staging_.source);
  drop(staging_.destination);
  drop(staging_.source_port);
  drop(staging_.destination_port);
  drop(staging_.sequence);
  drop(staging_.acknowledgment);
  drop(staging_.ip_id);
  drop(staging_.window);
  drop(staging_.ttl);
}

void ProbeCacheWriter::append(const telescope::ProbeBatch& batch) {
  if (!open_ || batch.empty()) return;
  // Restage through a fixed row grid: the emitted chunk boundaries — and
  // therefore the file bytes — depend only on the probe stream, not on
  // how the classifier happened to batch its appends.
  const auto splice = [](auto& into, const auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  splice(staging_.timestamp_us, batch.timestamp_us);
  splice(staging_.source, batch.source);
  splice(staging_.destination, batch.destination);
  splice(staging_.source_port, batch.source_port);
  splice(staging_.destination_port, batch.destination_port);
  splice(staging_.sequence, batch.sequence);
  splice(staging_.acknowledgment, batch.acknowledgment);
  splice(staging_.ip_id, batch.ip_id);
  splice(staging_.window, batch.window);
  splice(staging_.ttl, batch.ttl);
  flush_staging(false);
}

bool ProbeCacheWriter::commit(std::uint64_t frame_count, pcap::ReadStatus terminal_status,
                              const telescope::SensorCounters& sensor) {
  if (!open_) return false;
  flush_staging(true);
  std::array<std::uint8_t, kHeaderSize> header{};
  encode_header(header.data(), identity_, frame_count, probe_count_,
                terminal_status, sensor, checksum_);
  stream_.seekp(0);
  stream_.write(reinterpret_cast<const char*>(header.data()),
                static_cast<std::streamsize>(header.size()));
  stream_.flush();
  const bool ok = stream_.good();
  stream_.close();
  open_ = false;
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(tmp_path_, path_, ec);
    if (!ec) return true;
  }
  std::filesystem::remove(tmp_path_, ec);
  return false;
}

void ProbeCacheWriter::abandon() {
  if (!open_) return;
  stream_.close();
  open_ = false;
  std::error_code ec;
  std::filesystem::remove(tmp_path_, ec);
}

std::optional<ProbeCacheReader> ProbeCacheReader::open(
    const std::filesystem::path& path, const CacheIdentity& expected) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) return std::nullopt;

  ProbeCacheReader reader;
  try {
    reader.file_ = pcap::MappedFile::open(path);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const auto bytes = reader.file_.bytes();
  CacheFileInfo info;
  if (parse_header(bytes, info) != nullptr || check_header(info) != nullptr) {
    return std::nullopt;
  }
  if (info.source_size != expected.source_size ||
      info.source_mtime_ns != expected.source_mtime_ns) {
    return std::nullopt;  // stale: the capture changed since the cache was cut
  }
  // Walk the chunk framing and checksum every byte before releasing any
  // probe: a torn write must read as "no cache", not as partial data.
  std::uint64_t chunks = 0;
  std::uint64_t rows = 0;
  if (walk_chunks(bytes, info, chunks, rows) != nullptr) return std::nullopt;

  reader.frame_count_ = info.frame_count;
  reader.probe_count_ = info.probe_count;
  reader.terminal_status_ = info.terminal_status;
  reader.sensor_ = info.sensor;
  reader.offset_ = kHeaderSize;
  return reader;
}

bool ProbeCacheReader::next_chunk(telescope::ProbeBatch& out) {
  const auto bytes = file_.bytes();
  if (offset_ >= bytes.size()) {
    out.clear();
    return false;
  }
  // Framing was fully validated in open(); the decode below re-checks
  // every bound anyway (memory safety over trust) and treats an
  // inconsistency as end-of-cache.
  const auto rows = static_cast<std::size_t>(net::load_le64(bytes.data() + offset_));
  const std::uint8_t* p = bytes.data() + offset_ + 8;
  if (!decode_chunk_body(p, bytes.data() + bytes.size(), rows, out)) {
    out.clear();
    offset_ = bytes.size();
    return false;
  }
  offset_ = static_cast<std::size_t>(p - bytes.data());
  return true;
}

}  // namespace synscan::core
