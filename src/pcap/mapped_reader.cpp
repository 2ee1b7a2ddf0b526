#include "pcap/mapped_reader.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
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

namespace synscan::pcap {
namespace {

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

/// Appends up to `max_frames` record views from `bytes[offset, end)` to
/// `out`, advancing `offset` past every record consumed. kOk means the
/// batch filled.
detail::WalkEnd walk_records(std::span<const std::uint8_t> bytes, const FileInfo& info,
                             std::size_t& offset, std::size_t end,
                             std::vector<net::FrameView>& out, std::size_t max_frames) {
  return detail::scan_records(
      bytes, info, offset, end,
      [&out, max_frames](net::TimeUs timestamp_us, const std::uint8_t* data,
                         std::uint32_t captured_length) {
        out.push_back(net::FrameView{timestamp_us, {data, captured_length}});
        return out.size() < max_frames;
      });
}

}  // namespace

std::vector<ScanChunk> partition_records(std::span<const std::uint8_t> bytes,
                                         const FileInfo& info, std::size_t max_chunks) {
  const std::size_t size = bytes.size();
  const std::size_t begin = std::min<std::size_t>(kGlobalHeaderSize, size);
  if (max_chunks <= 1 || size - begin < 2 * kRecordHeaderSize) {
    return {{begin, size}};
  }
  const std::size_t target = std::max<std::size_t>((size - begin) / max_chunks,
                                                   kRecordHeaderSize);

  std::vector<ScanChunk> chunks;
  chunks.reserve(max_chunks);
  std::size_t offset = begin;
  std::size_t chunk_begin = begin;
  (void)detail::scan_records(
      bytes, info, offset, size,
      [&](net::TimeUs /*timestamp_us*/, const std::uint8_t* /*data*/,
          std::uint32_t /*captured_length*/) {
        if (offset - chunk_begin >= target && offset < size &&
            chunks.size() + 1 < max_chunks) {
          chunks.push_back({chunk_begin, offset});
          chunk_begin = offset;
        }
        return true;
      });
  // A defect (or clean EOF) ends the walk; either way the final chunk
  // runs to the end of the file, where its scanner re-derives the exact
  // terminal status.
  chunks.push_back({chunk_begin, size});
  return chunks;
}

ChunkReader::ChunkReader(std::span<const std::uint8_t> bytes, const FileInfo& info,
                         ScanChunk chunk) noexcept
    : bytes_(bytes),
      info_(info),
      offset_(std::min(chunk.begin, bytes.size())),
      end_(std::min(chunk.end, bytes.size())) {
  if (offset_ > end_) offset_ = end_;
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs_frames_ = &registry.counter("pcap.frames");
    obs_bytes_ = &registry.counter("pcap.bytes");
    obs_truncated_ = &registry.counter("pcap.truncated");
    obs_bad_records_ = &registry.counter("pcap.bad_records");
  }
}

ReadStatus ChunkReader::next_batch(std::vector<net::FrameView>& out,
                                   std::size_t max_frames) {
  out.clear();
  if (pending_) {
    const auto status = *pending_;
    pending_.reset();
    return status;
  }
  if (done_ || max_frames == 0) return done_ ? ReadStatus::kEndOfFile : ReadStatus::kOk;
  const auto walk = walk_records(bytes_, info_, offset_, end_, out, max_frames);
  frames_read_ += out.size();
  if (obs_frames_ != nullptr && !out.empty()) {
    obs_frames_->add(out.size());
    obs_bytes_->add(walk.bytes);
  }
  if (walk.status == ReadStatus::kOk) return ReadStatus::kOk;  // batch filled
  done_ = true;
  if (walk.status == ReadStatus::kTruncated && obs_truncated_ != nullptr) {
    obs_truncated_->add();
  }
  if (walk.status == ReadStatus::kBadRecord && obs_bad_records_ != nullptr) {
    obs_bad_records_->add();
  }
  if (out.empty()) return walk.status;
  // Deliver the partial batch now; owe the non-EOF terminal status to
  // the next call (kEndOfFile re-emerges from done_ by itself).
  if (walk.status != ReadStatus::kEndOfFile) pending_ = walk.status;
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

MappedReader::MappedReader(MappedFile file) : file_(std::move(file)) {
  const auto info = parse_global_header(file_.bytes());
  if (!info) {
    throw std::runtime_error(
        file_.bytes().size() < kGlobalHeaderSize
            ? "pcap: capture shorter than the global header"
            : "pcap: unknown magic number");
  }
  info_ = *info;
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs_frames_ = &registry.counter("pcap.frames");
    obs_bytes_ = &registry.counter("pcap.bytes");
    obs_truncated_ = &registry.counter("pcap.truncated");
    obs_bad_records_ = &registry.counter("pcap.bad_records");
  }
}

MappedReader MappedReader::open(const std::filesystem::path& path) {
  return MappedReader(MappedFile::open(path));
}

ReadStatus MappedReader::next(net::FrameView& out) {
  if (done_) return ReadStatus::kEndOfFile;
  const auto bytes = file_.bytes();
  const auto remaining = bytes.size() - offset_;
  if (remaining == 0) {
    done_ = true;
    return ReadStatus::kEndOfFile;
  }
  if (remaining < kRecordHeaderSize) {
    // The capture stops inside a record header (killed mid-write).
    done_ = true;
    if (obs_truncated_ != nullptr) obs_truncated_->add();
    return ReadStatus::kTruncated;
  }
  RecordHeader header;
  if (parse_record_header(bytes.subspan(offset_, kRecordHeaderSize), info_, header) !=
      ReadStatus::kOk) {
    done_ = true;
    if (obs_bad_records_ != nullptr) obs_bad_records_->add();
    return ReadStatus::kBadRecord;
  }
  if (remaining - kRecordHeaderSize < header.captured_length) {
    done_ = true;
    if (obs_truncated_ != nullptr) obs_truncated_->add();
    return ReadStatus::kTruncated;
  }
  out.timestamp_us = header.timestamp_us;
  out.bytes = bytes.subspan(offset_ + kRecordHeaderSize, header.captured_length);
  offset_ += kRecordHeaderSize + header.captured_length;
  ++frames_read_;
  if (obs_frames_ != nullptr) {
    obs_frames_->add();
    obs_bytes_->add(header.captured_length);
  }
  return ReadStatus::kOk;
}

ReadStatus MappedReader::next_batch(std::vector<net::FrameView>& out,
                                    std::size_t max_frames) {
  out.clear();
  if (pending_) {
    const auto status = *pending_;
    pending_.reset();
    return status;
  }
  if (done_ || max_frames == 0) return done_ ? ReadStatus::kEndOfFile : ReadStatus::kOk;
  const auto bytes = file_.bytes();
  const auto walk = walk_records(bytes, info_, offset_, bytes.size(), out, max_frames);
  frames_read_ += out.size();
  if (obs_frames_ != nullptr && !out.empty()) {
    obs_frames_->add(out.size());
    obs_bytes_->add(walk.bytes);
  }
  if (walk.status == ReadStatus::kOk) return ReadStatus::kOk;  // batch filled
  done_ = true;
  if (walk.status == ReadStatus::kTruncated && obs_truncated_ != nullptr) {
    obs_truncated_->add();
  }
  if (walk.status == ReadStatus::kBadRecord && obs_bad_records_ != nullptr) {
    obs_bad_records_->add();
  }
  if (out.empty()) return walk.status;
  // Deliver the partial batch now; owe the non-EOF terminal status to
  // the next call (kEndOfFile re-emerges from done_ by itself).
  if (walk.status != ReadStatus::kEndOfFile) pending_ = walk.status;
  return ReadStatus::kOk;
}

}  // namespace synscan::pcap
