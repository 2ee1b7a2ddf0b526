#include "pcap/pcapng.h"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "net/endian.h"

namespace synscan::pcap {
namespace {

constexpr std::uint32_t kSectionHeaderBlock = 0x0A0D0D0A;
constexpr std::uint32_t kInterfaceBlock = 1;
constexpr std::uint32_t kSimplePacketBlock = 3;
constexpr std::uint32_t kEnhancedPacketBlock = 6;
constexpr std::uint32_t kByteOrderMagic = 0x1A2B3C4D;
constexpr std::uint32_t kMaxBlockLength = 1u << 24;  // 16 MiB sanity cap

std::uint16_t load16(const std::uint8_t* p, bool big_endian) {
  return big_endian ? net::load_be16(p) : net::load_le16(p);
}
std::uint32_t load32(const std::uint8_t* p, bool big_endian) {
  return big_endian ? net::load_be32(p) : net::load_le32(p);
}

}  // namespace

bool NgReader::read_exact(void* buffer, std::size_t size) {
  stream_->read(static_cast<char*>(buffer), static_cast<std::streamsize>(size));
  return stream_->gcount() == static_cast<std::streamsize>(size);
}

NgReader::NgReader(std::unique_ptr<std::istream> stream) : stream_(std::move(stream)) {
  if (!stream_ || !*stream_) {
    throw std::runtime_error("pcapng: cannot read capture stream");
  }
  // The first block must be a Section Header Block. Its type field is
  // the palindromic 0x0A0D0D0A in either byte order; the byte-order
  // magic inside the body disambiguates endianness.
  std::array<std::uint8_t, 8> head{};
  if (!read_exact(head.data(), head.size())) {
    throw std::runtime_error("pcapng: capture shorter than a block header");
  }
  if (net::load_le32(head.data()) != kSectionHeaderBlock) {
    throw std::runtime_error("pcapng: missing Section Header Block");
  }
  // Peek the byte-order magic to learn endianness, then the total length.
  std::array<std::uint8_t, 4> magic{};
  if (!read_exact(magic.data(), magic.size())) {
    throw std::runtime_error("pcapng: truncated Section Header Block");
  }
  if (net::load_le32(magic.data()) == kByteOrderMagic) {
    big_endian_ = false;
  } else if (net::load_be32(magic.data()) == kByteOrderMagic) {
    big_endian_ = true;
  } else {
    throw std::runtime_error("pcapng: bad byte-order magic");
  }
  const auto total_length = load32(head.data() + 4, big_endian_);
  if (total_length < 28 || total_length % 4 != 0 || total_length > kMaxBlockLength) {
    throw std::runtime_error("pcapng: implausible SHB length");
  }
  // Skip the rest of the SHB (version, section length, options, trailing
  // total length): total - 8 (head) - 4 (magic already read).
  std::vector<std::uint8_t> rest(total_length - 12);
  if (!read_exact(rest.data(), rest.size())) {
    throw std::runtime_error("pcapng: truncated Section Header Block");
  }
}

NgReader NgReader::open(const std::filesystem::path& path) {
  auto stream = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!stream->is_open()) {
    throw std::runtime_error("pcapng: cannot open " + path.string());
  }
  return NgReader(std::move(stream));
}

NgReader NgReader::over(std::span<const std::uint8_t> bytes) {
  return NgReader(borrowed_stream(bytes));
}

void NgReader::parse_interface_block(const std::vector<std::uint8_t>& body) {
  Interface iface;
  if (body.size() >= 8) {
    iface.link_type = load16(body.data(), big_endian_);
    // Walk options looking for if_tsresol (code 9, 1 byte).
    std::size_t offset = 8;
    while (offset + 4 <= body.size()) {
      const auto code = load16(body.data() + offset, big_endian_);
      const auto length = load16(body.data() + offset + 2, big_endian_);
      offset += 4;
      if (code == 0) break;  // opt_endofopt
      if (offset + length > body.size()) break;
      if (code == 9 && length >= 1) {
        const std::uint8_t resol = body[offset];
        if ((resol & 0x80) != 0) {
          iface.ticks_per_second = std::uint64_t{1} << (resol & 0x7f);
        } else {
          iface.ticks_per_second = 1;
          for (std::uint8_t i = 0; i < (resol & 0x7f) && i < 19; ++i) {
            iface.ticks_per_second *= 10;
          }
        }
      }
      offset += (length + 3u) & ~3u;  // options pad to 32 bits
    }
  }
  if (iface.ticks_per_second == 0) iface.ticks_per_second = 1'000'000;
  interfaces_.push_back(iface);
}

ReadStatus NgReader::next(net::RawFrame& out) {
  for (;;) {
    std::array<std::uint8_t, 8> head{};
    stream_->read(reinterpret_cast<char*>(head.data()), 8);
    const auto got = stream_->gcount();
    if (got == 0) return ReadStatus::kEndOfFile;
    if (got != 8) return ReadStatus::kTruncated;

    const bool is_shb = net::load_le32(head.data()) == kSectionHeaderBlock;
    if (is_shb) {
      // A new section may switch endianness: read its byte-order magic
      // first, then reinterpret the length field accordingly.
      std::array<std::uint8_t, 4> magic{};
      if (!read_exact(magic.data(), magic.size())) return ReadStatus::kTruncated;
      if (net::load_le32(magic.data()) == kByteOrderMagic) {
        big_endian_ = false;
      } else if (net::load_be32(magic.data()) == kByteOrderMagic) {
        big_endian_ = true;
      } else {
        return ReadStatus::kBadRecord;
      }
      const auto shb_length = load32(head.data() + 4, big_endian_);
      if (shb_length < 28 || shb_length % 4 != 0 || shb_length > kMaxBlockLength) {
        return ReadStatus::kBadRecord;
      }
      std::vector<std::uint8_t> rest(shb_length - 12);
      if (!read_exact(rest.data(), rest.size())) return ReadStatus::kTruncated;
      interfaces_.clear();  // interfaces are per-section
      continue;
    }

    const auto block_type = load32(head.data(), big_endian_);
    const auto total_length = load32(head.data() + 4, big_endian_);
    if (total_length < 12 || total_length % 4 != 0 || total_length > kMaxBlockLength) {
      return ReadStatus::kBadRecord;
    }

    std::vector<std::uint8_t> body(total_length - 12);
    if (!read_exact(body.data(), body.size())) return ReadStatus::kTruncated;
    std::array<std::uint8_t, 4> trailer{};
    if (!read_exact(trailer.data(), trailer.size())) return ReadStatus::kTruncated;
    // Verify the redundant trailing length.
    if (load32(trailer.data(), big_endian_) != total_length) {
      return ReadStatus::kBadRecord;
    }

    switch (block_type) {
      case kInterfaceBlock:
        parse_interface_block(body);
        continue;
      case kEnhancedPacketBlock: {
        if (body.size() < 20) return ReadStatus::kBadRecord;
        const auto interface_id = load32(body.data(), big_endian_);
        const auto ts_high = load32(body.data() + 4, big_endian_);
        const auto ts_low = load32(body.data() + 8, big_endian_);
        const auto captured = load32(body.data() + 12, big_endian_);
        if (captured > body.size() - 20) return ReadStatus::kBadRecord;

        const auto ticks =
            (static_cast<std::uint64_t>(ts_high) << 32) | ts_low;
        std::uint64_t ticks_per_second = 1'000'000;
        if (interface_id < interfaces_.size()) {
          ticks_per_second = interfaces_[interface_id].ticks_per_second;
        }
        // Convert to µs without overflowing: seconds part exactly, the
        // remainder scaled.
        const auto seconds = ticks / ticks_per_second;
        const auto frac_ticks = ticks % ticks_per_second;
        out.timestamp_us =
            static_cast<net::TimeUs>(seconds) * net::kMicrosPerSecond +
            static_cast<net::TimeUs>(frac_ticks * 1'000'000 / ticks_per_second);
        out.bytes.assign(body.begin() + 20, body.begin() + 20 + captured);
        ++packets_read_;
        return ReadStatus::kOk;
      }
      case kSimplePacketBlock: {
        if (body.size() < 4) return ReadStatus::kBadRecord;
        const auto original = load32(body.data(), big_endian_);
        const auto captured =
            std::min<std::size_t>(original, body.size() - 4);
        out.timestamp_us = 0;  // SPBs carry no timestamp
        out.bytes.assign(body.begin() + 4, body.begin() + 4 + static_cast<std::ptrdiff_t>(captured));
        ++packets_read_;
        return ReadStatus::kOk;
      }
      default:
        continue;  // skip unknown block types by length, per spec
    }
  }
}

std::pair<std::vector<net::RawFrame>, ReadStatus> NgReader::read_all() {
  std::vector<net::RawFrame> frames;
  net::RawFrame frame;
  for (;;) {
    const auto status = next(frame);
    if (status != ReadStatus::kOk) return {std::move(frames), status};
    frames.push_back(std::move(frame));
    frame = {};
  }
}

bool looks_like_pcapng(std::span<const std::uint8_t> head) {
  return head.size() >= 4 && net::load_le32(head.data()) == kSectionHeaderBlock;
}

bool looks_like_pcapng(const std::filesystem::path& path) {
  std::ifstream stream(path, std::ios::binary);
  std::array<std::uint8_t, 4> head{};
  stream.read(reinterpret_cast<char*>(head.data()), 4);
  return stream.gcount() == 4 && looks_like_pcapng(head);
}

std::pair<std::vector<net::RawFrame>, ReadStatus> read_any_capture(
    const std::filesystem::path& path) {
  if (looks_like_pcapng(path)) {
    auto reader = NgReader::open(path);
    return reader.read_all();
  }
  return read_file(path);
}

}  // namespace synscan::pcap
