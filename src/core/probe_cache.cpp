#include "core/probe_cache.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include <unistd.h>

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

/// Bounds-checked LEB128 decode of a varint of any length, bits past the
/// 64th dropped; false when the stream ends mid-varint.
inline bool get_varint(const std::uint8_t*& p, const std::uint8_t* end,
                       std::uint64_t& v) {
  v = 0;
  unsigned shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    if (shift < 64) {
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      shift += 7;
    }
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

/// Whether a varint stream holds exactly `values` (at least one)
/// varints: that many terminators, the last byte one of them.
bool holds_varints(std::span<const std::uint8_t> stream, std::uint64_t values) {
  if (stream.empty() || (stream.back() & 0x80) != 0) return false;
  std::uint64_t terminators = 0;
  std::size_t i = 0;
  while (i + 8 <= stream.size()) {
    std::uint64_t lanes = 0;  // per byte lane, at most 31: no popcount call
    for (int word = 0; word < 31 && i + 8 <= stream.size(); ++word, i += 8) {
      lanes += (~net::load_le64(stream.data() + i) >> 7) & 0x0101010101010101ull;
    }
    terminators += (lanes * 0x0101010101010101ull) >> 56;  // the lanes' sum, < 256
  }
  for (; i < stream.size(); ++i) terminators += stream[i] < 0x80 ? 1u : 0u;
  return terminators == values;
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

std::vector<std::uint8_t> encode_header(const CacheIdentity& identity,
                                        std::uint64_t frame_count,
                                        std::uint64_t probe_count,
                                        pcap::ReadStatus terminal_status,
                                        const telescope::SensorCounters& sensor,
                                        std::uint64_t checksum) {
  ByteWriter out;
  out.u32(kMagic);
  out.u32(kVersion);
  out.u64(identity.source_size);
  out.u64(identity.source_mtime_ns);
  out.u64(frame_count);
  out.u64(probe_count);
  out.u32(static_cast<std::uint32_t>(terminal_status));
  out.u32(kCacheCodecDeltaVarint);
  put_sensor(out, sensor);
  out.u64(checksum);
  return out.bytes();
}

/// Raw header parse: everything `cache_stat` can report. Only rejects
/// what makes the fields meaningless (short file, wrong magic, a
/// terminal status outside the enum).
const char* parse_header(std::span<const std::uint8_t> bytes, CacheFileInfo& info) {
  if (bytes.size() < kHeaderSize) return "file shorter than the spc header";
  ByteReader in(bytes.first(kHeaderSize));
  if (in.u32() != kMagic) return "bad magic (not an spc file)";
  info.version = in.u32();
  info.source_size = in.u64();
  info.source_mtime_ns = in.u64();
  info.frame_count = in.u64();
  info.probe_count = in.u64();
  const auto status = in.u32();
  if (status > static_cast<std::uint32_t>(pcap::ReadStatus::kBadRecord)) {
    return "corrupt terminal status";
  }
  info.terminal_status = static_cast<pcap::ReadStatus>(status);
  info.codec = in.u32();
  get_sensor(in, info.sensor);
  info.checksum = in.u64();
  info.file_size = bytes.size();
  return nullptr;
}

/// Structural acceptance for replay: does this reader understand the
/// file at all, and do its header counters add up? Any other version or
/// codec — an older layout or a future one — reads as "no cache", never
/// as garbage probes.
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
  // The checksum covers only the chunks; this identity covers the rest
  // of the counters: every frame lands in exactly one sensor counter.
  if (info.sensor.total() != info.frame_count) {
    return "sensor counters do not sum to the frame count";
  }
  return nullptr;
}

/// Walks and checksums the chunk region. A torn write must read as "no
/// cache", not as partial data, so every framing field is validated
/// before anything downstream trusts it, each varint column's count too.
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
      if (!holds_varints(bytes.subspan(at, length), rows)) return "column row count mismatch";
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

/// The one `.spc` validation, shared by `ProbeCacheReader::open` and
/// `cache_verify`: header, its accounting identity, the source identity
/// when `expected` is given, then chunk framing and checksum.
CacheVerifyReport validate(std::span<const std::uint8_t> bytes,
                           const std::optional<CacheIdentity>& expected,
                           CacheFileInfo& info) {
  CacheVerifyReport report;
  const char* err = parse_header(bytes, info);
  if (err == nullptr) err = check_header(info);
  if (err == nullptr && expected &&
      (info.source_size != expected->source_size ||
       info.source_mtime_ns != expected->source_mtime_ns)) {
    err = "stale: source capture changed since the cache was cut";
  }
  if (err == nullptr) err = walk_chunks(bytes, info, report.chunks, report.rows);
  report.ok = err == nullptr;
  if (err != nullptr) report.error = err;
  return report;
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

void put_sensor(ByteWriter& out, const telescope::SensorCounters& sensor) {
  out.u64(sensor.scan_probes);
  out.u64(sensor.backscatter);
  out.u64(sensor.xmas_or_null);
  out.u64(sensor.other_tcp);
  out.u64(sensor.udp);
  out.u64(sensor.icmp);
  out.u64(sensor.not_monitored);
  out.u64(sensor.ingress_blocked);
  out.u64(sensor.malformed);
  out.u64(sensor.spoofed_source);
}

void get_sensor(ByteReader& in, telescope::SensorCounters& sensor) {
  sensor.scan_probes = in.u64();
  sensor.backscatter = in.u64();
  sensor.xmas_or_null = in.u64();
  sensor.other_tcp = in.u64();
  sensor.udp = in.u64();
  sensor.icmp = in.u64();
  sensor.not_monitored = in.u64();
  sensor.ingress_blocked = in.u64();
  sensor.malformed = in.u64();
  sensor.spoofed_source = in.u64();
}

const char* map_sidecar(const std::filesystem::path& path, pcap::MappedFile& file) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) return "not a regular file";
  try {
    file = pcap::MappedFile::open(path);
  } catch (const std::exception&) {
    return "cannot open file";
  }
  return nullptr;
}

SidecarWriter::SidecarWriter(std::filesystem::path target) : target_(std::move(target)) {
  // Unique per writer: the pid separates processes, the counter writers
  // within one. "x" refuses to reuse a name some other writer holds.
  static std::atomic<std::uint64_t> next_temp{0};
  temp_ = target_.native() + "." + std::to_string(::getpid()) + "." +
          std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
  file_ = std::fopen(temp_.c_str(), "wbx");
  if (file_ == nullptr) {
    throw std::runtime_error("sidecar: cannot create " + temp_.string());
  }
}

SidecarWriter::~SidecarWriter() {
  if (file_ == nullptr) return;  // committed
  std::fclose(file_);
  std::error_code ec;
  std::filesystem::remove(temp_, ec);
}

void SidecarWriter::append(std::span<const std::uint8_t> bytes) {
  if (file_ == nullptr) return;
  ok_ = ok_ && std::fwrite(bytes.data(), 1, bytes.size(), file_) == bytes.size();
}

bool SidecarWriter::commit(std::span<const std::uint8_t> header) {
  if (file_ == nullptr) return false;
  if (!header.empty()) {
    ok_ = ok_ && std::fseek(file_, 0, SEEK_SET) == 0 &&
          std::fwrite(header.data(), 1, header.size(), file_) == header.size();
  }
  ok_ = ok_ && std::fflush(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  std::error_code ec;
  if (ok_ && closed) {
    std::filesystem::rename(temp_, target_, ec);
    if (!ec) return true;
  }
  std::filesystem::remove(temp_, ec);
  return false;
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
  pcap::MappedFile file;
  if (map_sidecar(path, file) != nullptr) return std::nullopt;
  CacheFileInfo info;
  if (parse_header(file.bytes(), info) != nullptr) return std::nullopt;
  return info;
}

CacheVerifyReport cache_verify(const std::filesystem::path& path,
                               const std::optional<CacheIdentity>& expected) {
  pcap::MappedFile file;
  if (const char* err = map_sidecar(path, file)) {
    CacheVerifyReport report;
    report.error = err;
    return report;
  }
  CacheFileInfo info;
  return validate(file.bytes(), expected, info);
}

ProbeCacheWriter::ProbeCacheWriter(const std::filesystem::path& path,
                                   const CacheIdentity& identity)
    : file_(path), identity_(identity) {
  file_.append(std::vector<std::uint8_t>(kHeaderSize, 0));  // `commit` patches it
}

void ProbeCacheWriter::emit_chunk(std::size_t begin, std::size_t rows) {
  encode_chunk(staging_, begin, rows, scratch_);
  checksum_ = fnv1a(scratch_, checksum_);
  probe_count_ += rows;
  file_.append(scratch_);
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
  if (batch.empty()) return;
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
  flush_staging(true);
  return file_.commit(encode_header(identity_, frame_count, probe_count_,
                                    terminal_status, sensor, checksum_));
}

std::optional<ProbeCacheReader> ProbeCacheReader::open(
    const std::filesystem::path& path, const CacheIdentity& expected) {
  ProbeCacheReader reader;
  if (map_sidecar(path, reader.file_) != nullptr) return std::nullopt;
  // Walk the chunk framing and checksum every byte before releasing any
  // probe: a torn write must read as "no cache", not as partial data.
  if (!validate(reader.file_.bytes(), expected, reader.info_).ok) return std::nullopt;
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
