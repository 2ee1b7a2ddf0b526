// Mutation sweep over both sidecar files: a small valid `.spc` probe
// cache (core/probe_cache.h) and `.spr` rollup (core/rollup_store.h).
//
// A sidecar is a disposable cache, so a damaged one must read as "no
// file" and the caller rescans or re-analyzes. Three sweeps per format:
//   - every truncation length, and every single-byte XOR 0xff: each must
//     be rejected (`ProbeCacheReader::open` / `load_rollup` give nullopt
//     and `cache_verify` names a defect);
//   - every payload byte flipped with the header checksum recomputed, so
//     the flip passes the checksum and reaches the decoder: each may
//     decode to some value or be rejected, but must never crash, read
//     out of bounds or reserve past the bytes left. A reserve sized by a
//     corrupt count surfaces here as an escaping std::bad_alloc; the
//     ASan+UBSan CI job runs this file like every other test.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/probe_cache.h"
#include "core/rollup.h"
#include "core/rollup_store.h"
#include "net/endian.h"
#include "net/packet.h"
#include "pcap/pcap.h"
#include "test_support.h"

namespace synscan::core {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kSpcHeader = 136;
constexpr std::size_t kSpcChecksumAt = 128;
constexpr std::size_t kSprHeader = 64;
constexpr std::size_t kSprChecksumAt = 56;

void write_bytes(const fs::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Bytes read_bytes(const fs::path& path) {
  const auto chars = testing::slurp(path);
  return {chars.begin(), chars.end()};
}

/// Offsets in `offsets` as "a-b" runs, for a readable failure message.
std::string runs(const std::vector<std::size_t>& offsets) {
  std::ostringstream out;
  for (std::size_t i = 0; i < offsets.size();) {
    std::size_t j = i;
    while (j + 1 < offsets.size() && offsets[j + 1] == offsets[j] + 1) ++j;
    out << (i == 0 ? "" : " ") << offsets[i];
    if (j > i) out << "-" << offsets[j];
    i = j + 1;
  }
  return out.str();
}

/// `good` with the byte at `at` XORed with 0xff.
Bytes flipped(const Bytes& good, std::size_t at) {
  Bytes bytes = good;
  bytes[at] ^= 0xff;
  return bytes;
}

/// `flipped`, then the header checksum at `checksum_at` recomputed over
/// everything past `header` — the checksum then vouches for the flip.
Bytes forged(const Bytes& good, std::size_t at, std::size_t header, std::size_t checksum_at) {
  Bytes bytes = flipped(good, at);
  net::store_le64(bytes.data() + checksum_at, fnv1a(std::span(bytes).subspan(header)));
  return bytes;
}

class SidecarSweep : public ::testing::Test {
 protected:
  const testing::ScratchDir dir_;
  const fs::path capture_ = dir_ / "capture.pcap";
};

// --- .spc ---------------------------------------------------------------

class SpcSweep : public SidecarSweep {
 protected:
  void SetUp() override {
    SidecarSweep::SetUp();
    // Only the capture's identity matters to the cache.
    write_bytes(capture_, Bytes(100, 0x5a));
    identity_ = *cache_identity(capture_);
    cache_ = dir_ / "capture.pcap.spc";

    // One chunk of 50 probes; the counters add up as a real ingest's do.
    telescope::ProbeBatch batch;
    for (std::uint32_t i = 0; i < 50; ++i) {
      testing::ProbeBuilder probe;
      probe.at(1'000'000 + static_cast<net::TimeUs>(i) * 1'500)
          .from(net::Ipv4Address(0x05060700u + i % 3))
          .to(net::Ipv4Address(0xc6330000u + i * 7))
          .port(static_cast<std::uint16_t>(i % 2 == 0 ? 23 : 2323))
          .seq(0x9e3779b9u * i)
          .ipid(static_cast<std::uint16_t>(i * 31));
      batch.push_back(probe);
    }
    telescope::SensorCounters sensor;
    sensor.scan_probes = batch.size();
    sensor.backscatter = 3;
    sensor.malformed = 1;
    ProbeCacheWriter writer(cache_, identity_);
    writer.append(batch);
    ASSERT_TRUE(writer.commit(sensor.total(), pcap::ReadStatus::kEndOfFile, sensor));
    good_ = read_bytes(cache_);
    ASSERT_GT(good_.size(), kSpcHeader);
    const auto report = cache_verify(cache_, identity_);
    ASSERT_TRUE(report.ok) << report.error;
    ASSERT_EQ(report.chunks, 1u);
  }

  /// Writes `bytes` as the cache; true when any reader accepts it.
  bool accepted(std::span<const std::uint8_t> bytes) const {
    write_bytes(cache_, bytes);
    const bool opened = ProbeCacheReader::open(cache_, identity_).has_value();
    const bool verified = cache_verify(cache_, identity_).ok;
    EXPECT_EQ(opened, verified) << "open and cache_verify must agree";
    return opened || verified;
  }

  CacheIdentity identity_;
  fs::path cache_;
  Bytes good_;
};

TEST_F(SpcSweep, EveryTruncationIsRejected) {
  std::vector<std::size_t> accepted_lengths;
  for (std::size_t length = 0; length < good_.size(); ++length) {
    if (accepted(std::span(good_).first(length))) accepted_lengths.push_back(length);
  }
  EXPECT_TRUE(accepted_lengths.empty()) << "accepted lengths: " << runs(accepted_lengths);
}

TEST_F(SpcSweep, EveryByteFlipIsRejected) {
  std::vector<std::size_t> accepted_offsets;
  for (std::size_t at = 0; at < good_.size(); ++at) {
    if (accepted(flipped(good_, at))) accepted_offsets.push_back(at);
  }
  EXPECT_TRUE(accepted_offsets.empty()) << "accepted flips at: " << runs(accepted_offsets);
}

TEST_F(SpcSweep, ForgedChecksumFlipsDecodeOrFallBack) {
  std::size_t decoded = 0;
  for (std::size_t at = kSpcHeader; at < good_.size(); ++at) {
    write_bytes(cache_, forged(good_, at, kSpcHeader, kSpcChecksumAt));
    auto reader = ProbeCacheReader::open(cache_, identity_);
    if (!reader) continue;
    ++decoded;
    std::uint64_t rows = 0;
    telescope::ProbeBatch chunk;
    while (reader->next_chunk(chunk)) rows += chunk.size();
    EXPECT_LE(rows, reader->probe_count()) << "flip at " << at;
  }
  // Most flips land in a column and still frame: the decoder saw them.
  EXPECT_GT(decoded, 0u);
}

// --- .spr ---------------------------------------------------------------

class SprSweep : public SidecarSweep {
 protected:
  void SetUp() override {
    SidecarSweep::SetUp();
    // Short expiry and low thresholds keep the file small while it still
    // holds every section: source 1's first flow is a head segment, its
    // second an interior campaign, its third open at the end (a tail);
    // source 2 is one short flow at the start (a head); source 3 is one
    // short two-port flow more than `expiry` from both edges, which
    // closes below the threshold inside the shard (the residual tally).
    config_.min_distinct_destinations = 6;
    config_.expiry = 1'000'000;
    auto writer = pcap::Writer::create(capture_);
    net::RawFrame frame;
    const auto emit = [&](std::uint32_t source, std::uint32_t dest, net::TimeUs ts,
                          std::uint16_t port) {
      net::TcpFrameSpec tcp;
      tcp.src_ip = net::Ipv4Address(source);
      tcp.dst_ip = net::Ipv4Address(0xc6330000u + dest);
      tcp.src_port = 40000;
      tcp.dst_port = port;
      tcp.sequence = 11 * dest;
      frame.timestamp_us = ts;
      frame.bytes = net::build_tcp_frame(tcp);
      writer.write(frame);
    };
    for (std::uint32_t flow = 0; flow < 3; ++flow) {
      const net::TimeUs start = 1'000'000 + static_cast<net::TimeUs>(flow) * 5'000'000;
      for (std::uint32_t i = 0; i < 8; ++i) {
        emit(0x05000001u, flow * 100 + i, start + static_cast<net::TimeUs>(i) * 1'000,
             i % 2 == 0 ? 23 : 80);
      }
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      emit(0x05000002u, 500 + i, 2'000'000 + static_cast<net::TimeUs>(i) * 1'000, 443);
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      emit(0x05000003u, 600 + i, 4'000'000 + static_cast<net::TimeUs>(i) * 1'000,
           i % 2 == 0 ? 22 : 2222);
    }
    writer.flush();

    identity_ = *cache_identity(capture_);
    fingerprint_ = analysis_fingerprint(config_, test_telescope().monitored_count());
    IngestOptions ingest;
    ingest.use_cache = false;
    const auto rollup = analyze_shard(capture_, test_telescope(),
                                      enrich::InternetRegistry::synthetic_default(), config_,
                                      ingest);
    ASSERT_FALSE(rollup.campaigns.empty());
    ASSERT_FALSE(rollup.segments.empty());
    ASSERT_GT(rollup.residual_ports.total_sources(), 0u);
    rollup_ = rollup_path_for(capture_);
    ASSERT_TRUE(save_rollup(rollup_, rollup, identity_, fingerprint_));
    ASSERT_TRUE(load().has_value());
    good_ = read_bytes(rollup_);
  }

  static const telescope::Telescope& test_telescope() {
    static const telescope::Telescope scope({{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}},
                                            {});
    return scope;
  }

  [[nodiscard]] std::optional<CaptureRollup> load() const {
    return load_rollup(rollup_, enrich::InternetRegistry::synthetic_default(), identity_,
                       fingerprint_);
  }

  /// Writes `bytes` as the rollup; true when it loads.
  bool accepted(std::span<const std::uint8_t> bytes) const {
    write_bytes(rollup_, bytes);
    return load().has_value();
  }

  TrackerConfig config_;
  CacheIdentity identity_;
  std::uint64_t fingerprint_ = 0;
  fs::path rollup_;
  Bytes good_;
};

TEST_F(SprSweep, EveryTruncationIsRejected) {
  std::vector<std::size_t> accepted_lengths;
  for (std::size_t length = 0; length < good_.size(); ++length) {
    if (accepted(std::span(good_).first(length))) accepted_lengths.push_back(length);
  }
  EXPECT_TRUE(accepted_lengths.empty()) << "accepted lengths: " << runs(accepted_lengths);
}

TEST_F(SprSweep, EveryByteFlipIsRejected) {
  std::vector<std::size_t> accepted_offsets;
  for (std::size_t at = 0; at < good_.size(); ++at) {
    if (accepted(flipped(good_, at))) accepted_offsets.push_back(at);
  }
  EXPECT_TRUE(accepted_offsets.empty()) << "accepted flips at: " << runs(accepted_offsets);
}

TEST_F(SprSweep, ForgedChecksumFlipsDecodeOrFallBack) {
  std::size_t decoded = 0;
  for (std::size_t at = kSprHeader; at < good_.size(); ++at) {
    write_bytes(rollup_, forged(good_, at, kSprHeader, kSprChecksumAt));
    const auto rollup = load();
    if (!rollup) continue;
    ++decoded;
    for (const auto& segment : rollup->segments) {
      EXPECT_LE(segment.destinations.size() * 4, good_.size()) << "flip at " << at;
    }
  }
  // Flips in timestamps, counters and rates decode to other values.
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace synscan::core
