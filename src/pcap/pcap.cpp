#include "pcap/pcap.h"

#include <array>
#include <cerrno>
#include <fstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define SYNSCAN_HAVE_MMAP 1
#endif

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

#ifdef SYNSCAN_HAVE_MMAP
/// Reads `fd` to end of input into `bytes`; false on a read error.
bool drain_descriptor(int fd, std::vector<std::uint8_t>& bytes) {
  std::array<std::uint8_t, 1 << 16> chunk{};
  for (;;) {
    const auto got = ::read(fd, chunk.data(), chunk.size());
    if (got == 0) return true;
    if (got > 0) bytes.insert(bytes.end(), chunk.data(), chunk.data() + got);
    if (got < 0 && errno != EINTR) return false;
  }
}
#else
std::vector<std::uint8_t> drain_stream(std::istream& stream) {
  std::vector<std::uint8_t> bytes;
  std::array<char, 1 << 16> chunk{};
  while (stream.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         stream.gcount() > 0) {
    bytes.insert(bytes.end(), chunk.data(), chunk.data() + stream.gcount());
  }
  return bytes;
}
#endif

}  // namespace

void require_ethernet(std::uint32_t link_type) {
  if (link_type == static_cast<std::uint32_t>(LinkType::kEthernet)) return;
  throw std::runtime_error("capture link type " + std::to_string(link_type) +
                           " is not Ethernet (1); only Ethernet II captures are read");
}

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

MappedFile::~MappedFile() {
#ifdef SYNSCAN_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast): munmap takes void*
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_ && data_ != nullptr) data_ = fallback_.data();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    fallback_ = std::move(other.fallback_);
    if (!mapped_ && data_ != nullptr) data_ = fallback_.data();
  }
  return *this;
}

MappedFile MappedFile::open(const std::filesystem::path& path) {
  MappedFile file;
#ifdef SYNSCAN_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("pcap: cannot open " + path.string());
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    if (st.st_size == 0) {
      ::close(fd);
      return file;  // empty file: a valid, empty window
    }
    void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      ::close(fd);
      ::madvise(addr, static_cast<std::size_t>(st.st_size), MADV_SEQUENTIAL);
      file.data_ = static_cast<const std::uint8_t*>(addr);
      file.size_ = static_cast<std::size_t>(st.st_size);
      file.mapped_ = true;
      return file;
    }
  }
  // Fallback: bulk-read this same descriptor (FIFO, /proc entry, mmap
  // refusal). Opening the path again would lose every byte a FIFO has
  // already handed to this reader.
  const bool drained = drain_descriptor(fd, file.fallback_);
  ::close(fd);
  if (!drained) throw std::runtime_error("pcap: cannot read " + path.string());
#else
  std::ifstream stream(path, std::ios::binary);
  if (!stream.is_open()) throw std::runtime_error("pcap: cannot open " + path.string());
  file.fallback_ = drain_stream(stream);
#endif
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  return file;
}

Reader::Reader(MappedFile file, std::span<const std::uint8_t> bytes)
    : file_(std::move(file)), bytes_(bytes) {
  const auto info = parse_global_header(bytes_);
  if (!info) {
    throw std::runtime_error(bytes_.size() < kGlobalHeaderSize
                                 ? "pcap: capture shorter than the global header"
                                 : "pcap: unknown magic number");
  }
  require_ethernet(static_cast<std::uint32_t>(info->link_type));
  info_ = *info;

  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs_frames_ = &registry.counter("pcap.frames");
    obs_bytes_ = &registry.counter("pcap.bytes");
    obs_truncated_ = &registry.counter("pcap.truncated");
    obs_bad_records_ = &registry.counter("pcap.bad_records");
  }
}

Reader Reader::open(const std::filesystem::path& path) {
  auto file = MappedFile::open(path);
  const auto bytes = file.bytes();  // a move keeps the bytes where they are
  return {std::move(file), bytes};
}

Reader Reader::over(std::span<const std::uint8_t> bytes) { return {MappedFile{}, bytes}; }

ReadStatus Reader::finish(ReadStatus status) noexcept {
  done_ = true;
  if (status == ReadStatus::kTruncated && obs_truncated_ != nullptr) obs_truncated_->add();
  if (status == ReadStatus::kBadRecord && obs_bad_records_ != nullptr) {
    obs_bad_records_->add();
  }
  return status;
}

ReadStatus Reader::next(net::RawFrame& out) {
  if (done_) return ReadStatus::kEndOfFile;
  const auto left = bytes_.size() - offset_;
  if (left < kRecordHeaderSize) {
    return finish(left == 0 ? ReadStatus::kEndOfFile : ReadStatus::kTruncated);
  }
  RecordHeader header;
  if (parse_record_header(bytes_.subspan(offset_, kRecordHeaderSize), info_, header) !=
      ReadStatus::kOk) {
    return finish(ReadStatus::kBadRecord);
  }
  if (left - kRecordHeaderSize < header.captured_length) return finish(ReadStatus::kTruncated);

  const auto* data = bytes_.data() + offset_ + kRecordHeaderSize;
  out.bytes.assign(data, data + header.captured_length);
  out.timestamp_us = header.timestamp_us;
  offset_ += kRecordHeaderSize + header.captured_length;
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
