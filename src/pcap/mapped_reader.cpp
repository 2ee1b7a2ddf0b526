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

}  // namespace

ChunkReader::ChunkReader(std::span<const std::uint8_t> bytes, const FileInfo& info) noexcept
    : bytes_(bytes), info_(info), offset_(std::min(kGlobalHeaderSize, bytes.size())) {
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs_frames_ = &registry.counter("pcap.frames");
    obs_bytes_ = &registry.counter("pcap.bytes");
    obs_truncated_ = &registry.counter("pcap.truncated");
    obs_bad_records_ = &registry.counter("pcap.bad_records");
  }
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
}

MappedReader MappedReader::open(const std::filesystem::path& path) {
  return MappedReader(MappedFile::open(path));
}

}  // namespace synscan::pcap
