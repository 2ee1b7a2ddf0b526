#include "pcap/pcapng.h"

#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

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

/// Ticks per second named by an `if_tsresol` byte (2^-n when the high bit
/// is set, 10^-n otherwise), or nothing when they do not fit 64 bits.
std::optional<std::uint64_t> tsresol_ticks_per_second(std::uint8_t resol) {
  const unsigned exponent = resol & 0x7fu;
  if ((resol & 0x80) != 0) {
    if (exponent >= 64) return std::nullopt;
    return std::uint64_t{1} << exponent;
  }
  if (exponent >= 20) return std::nullopt;  // 10^20 > 2^64
  std::uint64_t ticks = 1;
  for (unsigned i = 0; i < exponent; ++i) ticks *= 10;
  return ticks;
}

__extension__ using Wide = unsigned __int128;

/// `ticks` at `ticks_per_second` in whole microseconds, or nothing when
/// that does not fit `net::TimeUs`.
std::optional<net::TimeUs> ticks_to_us(std::uint64_t ticks, std::uint64_t ticks_per_second) {
  // The seconds part exactly, the remainder scaled in 128 bits:
  // remainder × 10^6 overflows 64 bits once the resolution is finer
  // than about 2^-44 s.
  constexpr auto kMax = std::numeric_limits<net::TimeUs>::max();
  const auto seconds = ticks / ticks_per_second;
  const auto frac_us = static_cast<net::TimeUs>(
      Wide{ticks % ticks_per_second} * 1'000'000u / ticks_per_second);
  if (seconds > static_cast<std::uint64_t>(kMax / net::kMicrosPerSecond)) return std::nullopt;
  const auto whole_us = static_cast<net::TimeUs>(seconds) * net::kMicrosPerSecond;
  if (frac_us > kMax - whole_us) return std::nullopt;
  return whole_us + frac_us;
}

}  // namespace

NgReader::NgReader(MappedFile file, std::span<const std::uint8_t> bytes)
    : file_(std::move(file)), bytes_(bytes) {
  // The first block must be a Section Header Block. Its type field is
  // the palindromic 0x0A0D0D0A in either byte order; the byte-order
  // magic inside the body disambiguates endianness.
  if (bytes_.size() < 8) {
    throw std::runtime_error("pcapng: capture shorter than a block header");
  }
  if (!looks_like_pcapng(bytes_)) {
    throw std::runtime_error("pcapng: missing Section Header Block");
  }
  Block section;
  const auto framed = next_block(section);
  if (framed == ReadStatus::kTruncated) {
    throw std::runtime_error("pcapng: truncated Section Header Block");
  }
  if (framed != ReadStatus::kOk) {
    throw std::runtime_error("pcapng: corrupt Section Header Block");
  }
}

NgReader NgReader::open(const std::filesystem::path& path) {
  auto file = MappedFile::open(path);
  const auto bytes = file.bytes();  // a move keeps the bytes where they are
  return {std::move(file), bytes};
}

NgReader NgReader::over(std::span<const std::uint8_t> bytes) { return {MappedFile{}, bytes}; }

ReadStatus NgReader::next_block(Block& block) {
  const auto left = bytes_.size() - offset_;
  if (left == 0) return ReadStatus::kEndOfFile;
  if (left < 8) return ReadStatus::kTruncated;
  const std::uint8_t* head = bytes_.data() + offset_;
  const bool is_shb = net::load_le32(head) == kSectionHeaderBlock;
  if (is_shb) {
    // A new section may switch endianness: read its byte-order magic
    // first, then interpret the length fields accordingly.
    if (left < 12) return ReadStatus::kTruncated;
    if (net::load_le32(head + 8) == kByteOrderMagic) {
      big_endian_ = false;
    } else if (net::load_be32(head + 8) == kByteOrderMagic) {
      big_endian_ = true;
    } else {
      return ReadStatus::kBadRecord;
    }
  }
  const auto total_length = load32(head + 4, big_endian_);
  if (total_length < (is_shb ? 28u : 12u) || total_length % 4 != 0 ||
      total_length > kMaxBlockLength) {
    return ReadStatus::kBadRecord;
  }
  if (left < total_length) return ReadStatus::kTruncated;
  // Verify the redundant trailing length.
  if (load32(head + total_length - 4, big_endian_) != total_length) {
    return ReadStatus::kBadRecord;
  }
  block.type = load32(head, big_endian_);
  block.body = bytes_.subspan(offset_ + 8, total_length - 12);
  offset_ += total_length;
  return ReadStatus::kOk;
}

bool NgReader::parse_interface_block(std::span<const std::uint8_t> body) {
  Interface iface;
  if (body.size() >= 8) {
    require_ethernet(load16(body.data(), big_endian_));
    // Walk options looking for if_tsresol (code 9, 1 byte).
    std::size_t offset = 8;
    while (offset + 4 <= body.size()) {
      const auto code = load16(body.data() + offset, big_endian_);
      const auto length = load16(body.data() + offset + 2, big_endian_);
      offset += 4;
      if (code == 0) break;  // opt_endofopt
      if (offset + length > body.size()) break;
      if (code == 9 && length >= 1) {
        const auto ticks = tsresol_ticks_per_second(body[offset]);
        if (!ticks) return false;
        iface.ticks_per_second = *ticks;
      }
      offset += (length + 3u) & ~3u;  // options pad to 32 bits
    }
  }
  interfaces_.push_back(iface);
  return true;
}

ReadStatus NgReader::next(net::RawFrame& out) {
  if (done_) return ReadStatus::kEndOfFile;
  done_ = true;  // a refused interface throws, and ends the capture too
  const auto status = read_packet(out);
  done_ = status != ReadStatus::kOk;
  return status;
}

ReadStatus NgReader::read_packet(net::RawFrame& out) {
  for (;;) {
    Block block;
    if (const auto framed = next_block(block); framed != ReadStatus::kOk) return framed;
    const auto body = block.body;
    switch (block.type) {
      case kSectionHeaderBlock:
        interfaces_.clear();  // interfaces are per-section
        continue;
      case kInterfaceBlock:
        if (!parse_interface_block(body)) return ReadStatus::kBadRecord;
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
        std::uint64_t resolution = 1'000'000;
        if (interface_id < interfaces_.size()) {
          resolution = interfaces_[interface_id].ticks_per_second;
        }
        const auto timestamp_us = ticks_to_us(ticks, resolution);
        if (!timestamp_us) return ReadStatus::kBadRecord;
        out.timestamp_us = *timestamp_us;
        out.bytes.assign(body.data() + 20, body.data() + 20 + captured);
        return ReadStatus::kOk;
      }
      case kSimplePacketBlock: {
        if (body.size() < 4) return ReadStatus::kBadRecord;
        const auto original = load32(body.data(), big_endian_);
        const auto captured =
            std::min<std::size_t>(original, body.size() - 4);
        out.timestamp_us = 0;  // SPBs carry no timestamp
        out.bytes.assign(body.data() + 4, body.data() + 4 + captured);
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

std::pair<std::vector<net::RawFrame>, ReadStatus> read_any_capture(
    const std::filesystem::path& path) {
  const auto file = MappedFile::open(path);
  if (looks_like_pcapng(file.bytes())) return NgReader::over(file.bytes()).read_all();
  return Reader::over(file.bytes()).read_all();
}

}  // namespace synscan::pcap
