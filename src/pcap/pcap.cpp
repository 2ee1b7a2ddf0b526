#include "pcap/pcap.h"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "net/endian.h"

namespace synscan::pcap {
namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicrosSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanosSwapped = 0x4d3cb2a1;

std::uint16_t load16(const std::uint8_t* p, bool big_endian) {
  return big_endian ? net::load_be16(p) : net::load_le16(p);
}

std::uint32_t load32(const std::uint8_t* p, bool big_endian) {
  return big_endian ? net::load_be32(p) : net::load_le32(p);
}

/// Read-only istream over borrowed bytes: parses a capture in memory
/// without a copy.
class ByteStream final : public std::istream {
 public:
  explicit ByteStream(std::span<const std::uint8_t> bytes) : std::istream(nullptr) {
    // The get area is `char*` by interface; reads never write through it.
    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast)
    auto* begin = const_cast<char*>(reinterpret_cast<const char*>(bytes.data()));
    buffer_.view(begin, begin + bytes.size());
    rdbuf(&buffer_);
  }

 private:
  struct Buffer final : std::streambuf {
    void view(char* begin, char* end) { setg(begin, begin, end); }
  } buffer_;
};

}  // namespace

std::optional<FileInfo> parse_global_header(
    std::span<const std::uint8_t> header) noexcept {
  if (header.size() < kGlobalHeaderSize) return std::nullopt;
  FileInfo info;
  const auto raw_magic = net::load_le32(header.data());
  switch (raw_magic) {
    case kMagicMicros:
      info.big_endian = false;
      info.nanosecond = false;
      break;
    case kMagicNanos:
      info.big_endian = false;
      info.nanosecond = true;
      break;
    case kMagicMicrosSwapped:
      info.big_endian = true;
      info.nanosecond = false;
      break;
    case kMagicNanosSwapped:
      info.big_endian = true;
      info.nanosecond = true;
      break;
    default:
      return std::nullopt;
  }
  info.version_major = load16(header.data() + 4, info.big_endian);
  info.version_minor = load16(header.data() + 6, info.big_endian);
  // bytes 8..15: thiszone + sigfigs, historically zero; ignored.
  info.snap_length = load32(header.data() + 16, info.big_endian);
  info.link_type = static_cast<LinkType>(load32(header.data() + 20, info.big_endian));
  return info;
}

ReadStatus parse_record_header(std::span<const std::uint8_t> record,
                               const FileInfo& info, RecordHeader& out) noexcept {
  const auto ts_seconds = load32(record.data(), info.big_endian);
  const auto ts_frac = load32(record.data() + 4, info.big_endian);
  out.captured_length = load32(record.data() + 8, info.big_endian);
  out.original_length = load32(record.data() + 12, info.big_endian);

  // Sanity limits: a captured length above the snap length (or an absurd
  // 256 KiB when the snap length itself is damaged) means the stream has
  // lost framing.
  const auto limit = std::max<std::uint32_t>(info.snap_length, 65535);
  if (out.captured_length > limit || out.captured_length > out.original_length ||
      out.captured_length > (1u << 18)) {
    return ReadStatus::kBadRecord;
  }
  if (info.nanosecond ? ts_frac >= 1'000'000'000u : ts_frac >= 1'000'000u) {
    return ReadStatus::kBadRecord;
  }
  const auto frac_us = info.nanosecond ? ts_frac / 1000 : ts_frac;
  out.timestamp_us = static_cast<net::TimeUs>(ts_seconds) * net::kMicrosPerSecond +
                     static_cast<net::TimeUs>(frac_us);
  return ReadStatus::kOk;
}

Reader::Reader(std::unique_ptr<std::istream> stream) : stream_(std::move(stream)) {
  if (!stream_ || !*stream_) {
    throw std::runtime_error("pcap: cannot read capture stream");
  }
  std::array<std::uint8_t, kGlobalHeaderSize> header{};
  stream_->read(reinterpret_cast<char*>(header.data()),
                static_cast<std::streamsize>(header.size()));
  if (stream_->gcount() != static_cast<std::streamsize>(header.size())) {
    throw std::runtime_error("pcap: capture shorter than the global header");
  }
  const auto info = parse_global_header(header);
  if (!info) throw std::runtime_error("pcap: unknown magic number");
  info_ = *info;

  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs_frames_ = &registry.counter("pcap.frames");
    obs_bytes_ = &registry.counter("pcap.bytes");
    obs_truncated_ = &registry.counter("pcap.truncated");
    obs_bad_records_ = &registry.counter("pcap.bad_records");
  }
}

std::unique_ptr<std::istream> borrowed_stream(std::span<const std::uint8_t> bytes) {
  return std::make_unique<ByteStream>(bytes);
}

Reader Reader::open(const std::filesystem::path& path) {
  auto stream = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!stream->is_open()) {
    throw std::runtime_error("pcap: cannot open " + path.string());
  }
  return Reader(std::move(stream));
}

Reader Reader::over(std::span<const std::uint8_t> bytes) {
  return Reader(borrowed_stream(bytes));
}

ReadStatus Reader::next(net::RawFrame& out) {
  std::array<std::uint8_t, kRecordHeaderSize> record{};
  stream_->read(reinterpret_cast<char*>(record.data()),
                static_cast<std::streamsize>(record.size()));
  const auto got = stream_->gcount();
  if (got == 0) return ReadStatus::kEndOfFile;
  if (got != static_cast<std::streamsize>(record.size())) {
    if (obs_truncated_ != nullptr) obs_truncated_->add();
    return ReadStatus::kTruncated;
  }

  RecordHeader header;
  if (parse_record_header(record, info_, header) != ReadStatus::kOk) {
    if (obs_bad_records_ != nullptr) obs_bad_records_->add();
    return ReadStatus::kBadRecord;
  }

  out.bytes.resize(header.captured_length);
  stream_->read(reinterpret_cast<char*>(out.bytes.data()),
                static_cast<std::streamsize>(header.captured_length));
  if (stream_->gcount() != static_cast<std::streamsize>(header.captured_length)) {
    if (obs_truncated_ != nullptr) obs_truncated_->add();
    return ReadStatus::kTruncated;
  }
  out.timestamp_us = header.timestamp_us;
  ++frames_read_;
  if (obs_frames_ != nullptr) {
    obs_frames_->add();
    obs_bytes_->add(header.captured_length);
  }
  return ReadStatus::kOk;
}

std::pair<std::vector<net::RawFrame>, ReadStatus> Reader::read_all() {
  std::vector<net::RawFrame> frames;
  net::RawFrame frame;
  for (;;) {
    const auto status = next(frame);
    if (status != ReadStatus::kOk) return {std::move(frames), status};
    frames.push_back(std::move(frame));
    frame = {};
  }
}

Writer::Writer(std::unique_ptr<std::ostream> stream, LinkType link_type,
               std::uint32_t snap_length)
    : stream_(std::move(stream)), snap_length_(snap_length) {
  if (!stream_ || !*stream_) {
    throw std::runtime_error("pcap: cannot write capture stream");
  }
  std::array<std::uint8_t, kGlobalHeaderSize> header{};
  net::store_le32(header.data(), kMagicMicros);
  net::store_le16(header.data() + 4, 2);
  net::store_le16(header.data() + 6, 4);
  // thiszone and sigfigs stay zero.
  net::store_le32(header.data() + 16, snap_length_);
  net::store_le32(header.data() + 20, static_cast<std::uint32_t>(link_type));
  stream_->write(reinterpret_cast<const char*>(header.data()),
                 static_cast<std::streamsize>(header.size()));
}

Writer Writer::create(const std::filesystem::path& path, LinkType link_type) {
  auto stream = std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc);
  if (!stream->is_open()) {
    throw std::runtime_error("pcap: cannot create " + path.string());
  }
  return Writer(std::move(stream), link_type);
}

void Writer::write(const net::RawFrame& frame) {
  const auto captured =
      std::min<std::size_t>(frame.bytes.size(), snap_length_);
  std::array<std::uint8_t, kRecordHeaderSize> record{};
  const auto seconds = frame.timestamp_us / net::kMicrosPerSecond;
  const auto micros = frame.timestamp_us % net::kMicrosPerSecond;
  net::store_le32(record.data(), static_cast<std::uint32_t>(seconds));
  net::store_le32(record.data() + 4, static_cast<std::uint32_t>(micros));
  net::store_le32(record.data() + 8, static_cast<std::uint32_t>(captured));
  net::store_le32(record.data() + 12, static_cast<std::uint32_t>(frame.bytes.size()));
  stream_->write(reinterpret_cast<const char*>(record.data()),
                 static_cast<std::streamsize>(record.size()));
  stream_->write(reinterpret_cast<const char*>(frame.bytes.data()),
                 static_cast<std::streamsize>(captured));
  ++frames_written_;
}

void Writer::flush() { stream_->flush(); }

void write_file(const std::filesystem::path& path, std::span<const net::RawFrame> frames,
                LinkType link_type) {
  auto writer = Writer::create(path, link_type);
  for (const auto& frame : frames) writer.write(frame);
  writer.flush();
}

std::pair<std::vector<net::RawFrame>, ReadStatus> read_file(
    const std::filesystem::path& path) {
  auto reader = Reader::open(path);
  return reader.read_all();
}

}  // namespace synscan::pcap
