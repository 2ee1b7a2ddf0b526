// Allocation bounds for the sidecar decoders: the `.spr` rollup store
// (core/rollup_store.h) and the `.spc` probe cache (core/probe_cache.h).
// A stored count that passes the checksum sizes a container before the
// rows behind it are read, so a forged count must not buy an allocation
// out of proportion to the file. A replaced global `operator new`
// records the largest single request; it lives in a test binary of its
// own so that no other suite runs under it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/probe_cache.h"
#include "core/rollup_store.h"
#include "net/endian.h"

namespace {
std::atomic<std::size_t> largest_request{0};

/// Frees a block of the `operator new` below. Out of line: gcc reads a
/// `free` inlined next to a pointer from `operator new` as a mismatched
/// pair (-Wmismatched-new-delete), though here both sides use malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

// Every replaceable form but the aligned ones (left to the runtime, which
// pairs them among themselves) allocates through this one and frees with
// `std::free`, so no pointer crosses allocators.
void* operator new(std::size_t size) {
  auto seen = largest_request.load(std::memory_order_relaxed);
  while (size > seen &&
         !largest_request.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { release(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t& /*tag*/) noexcept { release(p); }

namespace synscan::core {
namespace {

namespace fs = std::filesystem;

/// `.spr` header size; the payload follows it.
constexpr std::size_t kHeader = 64;
/// No single allocation of a load may exceed this multiple of the
/// payload size. A port map reserved for a forged row count costs at
/// most about 4.6 bytes per stored byte (16-byte slots at a 0.7 load
/// bound, rounded up to a power of two, for 10-byte rows).
constexpr std::size_t kMaxAmplification = 8;

/// A campaign with 20 ports, a boundary segment with 50 destinations
/// and 10 ports, and a residual tally whose sources hold 1, 40 and 2
/// rows; the packet counts agree as the loader checks.
CaptureRollup sample_rollup() {
  CaptureRollup rollup;
  rollup.frames = 1000;
  rollup.first_probe_us = 1'000'000;
  rollup.max_timestamp_us = 9'000'000;
  Campaign campaign;
  campaign.id = 1;
  campaign.source = net::Ipv4Address(0x05000001u);
  campaign.packets = 60;
  campaign.distinct_destinations = 60;
  for (std::uint16_t p = 0; p < 20; ++p) {
    campaign.port_packets.add(static_cast<std::uint16_t>(1000 + p), 3);
  }
  rollup.campaigns.push_back(std::move(campaign));
  FlowSegment segment;
  segment.source = net::Ipv4Address(0x05000002u);
  segment.head = true;
  segment.tail = true;
  segment.packets = 60;
  for (std::uint32_t i = 0; i < 50; ++i) segment.destinations.push_back(0xc6330000u + i);
  for (std::uint16_t p = 0; p < 10; ++p) {
    segment.port_packets.add(static_cast<std::uint16_t>(2000 + p), 6);
  }
  segment.evidence.probes = 60;
  rollup.segments.push_back(std::move(segment));
  rollup.residual_ports.add(0x04000001u, 23, 1);
  for (std::uint16_t p = 0; p < 40; ++p) {
    rollup.residual_ports.add(0x05000001u, static_cast<std::uint16_t>(1000 + p), 2);
  }
  rollup.residual_ports.add(0x05000002u, 443, 5);
  rollup.residual_ports.add(0x05000002u, 8080, 5);
  rollup.tracker.subthreshold_packets = rollup.residual_ports.total_packets();
  rollup.tracker.probes = 60 + 60 + rollup.tracker.subthreshold_packets;
  return rollup;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t load_field(const std::vector<std::uint8_t>& bytes, std::size_t at,
                         std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return value;
}

void store_field(std::vector<std::uint8_t>& bytes, std::size_t at, std::size_t width,
                 std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// One stored count: its payload offset and width, the fewest payload
/// bytes each counted element takes (`ByteReader::count`'s divisor),
/// and the value `sample_rollup` stores there.
struct CountField {
  std::string label;
  std::size_t offset;
  std::size_t width;
  std::size_t min_bytes_each;
  std::uint64_t stored;
};

TEST(RollupAllocation, ForgedCountsAllocateWithinAMultipleOfThePayload) {
  const auto dir = fs::temp_directory_path() / "synscan_spr_alloc";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto path = dir / "capture.pcap.spr";
  const CacheIdentity identity{4096, 1'700'000'000'000'000'000ull};
  const std::uint64_t fingerprint = 0x5eed;
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  ASSERT_TRUE(save_rollup(path, sample_rollup(), identity, fingerprint));
  const auto original = read_file(path);
  ASSERT_GT(original.size(), kHeader);
  const std::size_t payload = original.size() - kHeader;

  // Payload offsets: the fixed prefix (meta, 10 sensor and 11 tracker
  // counters) is 196 bytes, then the campaign count and the campaign
  // (65 fixed bytes, then its u32 port count and 10-byte rows), the
  // segment count and the segment (29 fixed bytes, the u64 destination
  // count and the destinations, a u32 port count and its rows, 122
  // bytes of evidence), then the tally's u64 source count and its first
  // source (u32 source, u32 row count).
  const std::size_t campaign = 196 + 8;
  const std::size_t segment = campaign + 69 + 10 * 20 + 8;
  const std::size_t segment_ports = segment + 37 + 4 * 50;
  const std::size_t tally = segment_ports + 4 + 10 * 10 + 122;
  const std::vector<CountField> fields = {
      {"campaign count", campaign - 8, 8, 69, 1},
      {"campaign port-row count", campaign + 65, 4, 10, 20},
      {"segment count", segment - 8, 8, 163, 1},
      {"segment destination count", segment + 29, 8, 4, 50},
      {"segment port-row count", segment_ports, 4, 10, 10},
      {"tally source count", tally, 8, 18, 3},
      {"tally row count", tally + 8 + 4, 4, 10, 1},
  };

  const auto largest_load = [&](const std::vector<std::uint8_t>& bytes) {
    write_file(path, bytes);
    largest_request.store(0);
    const bool loaded = load_rollup(path, registry, identity, fingerprint).has_value();
    return std::pair{loaded, largest_request.load()};
  };

  const auto [intact_loads, intact_largest] = largest_load(original);
  EXPECT_TRUE(intact_loads);
  EXPECT_LE(intact_largest, kMaxAmplification * payload);

  for (const auto& field : fields) {
    SCOPED_TRACE(field.label);
    ASSERT_EQ(load_field(original, kHeader + field.offset, field.width), field.stored)
        << "the .spr layout moved; re-derive the offset";
    // Every count a reader might let through: the bytes left after the
    // field divided by each element size from one byte up to the fewest
    // bytes an element takes, which is `ByteReader::count`'s own bound.
    // A reader that bounded the count by fewer bytes than its elements
    // take would reserve in proportion to one of these.
    const std::size_t left = payload - field.offset - field.width;
    for (std::size_t each = 1; each <= field.min_bytes_each; ++each) {
      const std::uint64_t count = left / each;
      auto forged = original;
      store_field(forged, kHeader + field.offset, field.width, count);
      net::store_le64(forged.data() + 56, fnv1a(std::span(forged).subspan(kHeader)));
      const auto [loads, largest] = largest_load(forged);
      EXPECT_FALSE(loads) << "count " << count;
      EXPECT_LE(largest, kMaxAmplification * payload)
          << "count " << count << " in a payload of " << payload << " bytes";
    }
  }
  fs::remove_all(dir);
}

// `.spc` layout: the header's byte offsets that a forged chunk row count
// must be matched in, and the chunk's fixed-width bytes per row.
constexpr std::size_t kSpcHeader = 136;
constexpr std::size_t kSpcFrameCount = 24;
constexpr std::size_t kSpcProbeCount = 32;
constexpr std::size_t kSpcScanProbes = 48;  ///< the first sensor counter
constexpr std::size_t kSpcChecksum = 128;
constexpr std::size_t kSpcFixedRowBytes = 2 + 2 + 4 + 4 + 2 + 2 + 1;

/// `original`'s one chunk of `stored` rows with its row count forged to
/// `rows` and its fixed-width tail cut or zero-padded to match. With
/// `columns_too`, each of the three varint columns is also cut to its
/// first `rows` values or padded with zero deltas (one byte each), so the
/// columns hold what the count claims.
std::vector<std::uint8_t> forge_chunk_rows(const std::vector<std::uint8_t>& original,
                                           std::uint64_t stored, std::uint64_t rows,
                                           bool columns_too) {
  std::vector<std::uint8_t> forged(original.begin(),
                                   original.begin() + static_cast<std::ptrdiff_t>(kSpcHeader + 8));
  store_field(forged, kSpcHeader, 8, rows);
  std::size_t at = kSpcHeader + 8;
  for (int column = 0; column < 3; ++column) {
    const auto length = static_cast<std::size_t>(load_field(original, at, 8));
    const auto* stream = original.data() + at + 8;
    std::vector<std::uint8_t> values(stream, stream + length);
    if (columns_too) {
      std::uint64_t kept = 0;
      std::size_t end = 0;
      while (end < values.size() && kept < rows) {
        if ((values[end++] & 0x80) == 0) ++kept;
      }
      values.resize(end);
      values.resize(end + (rows - kept), 0);
    }
    const auto length_at = forged.size();
    forged.resize(length_at + 8);
    store_field(forged, length_at, 8, values.size());
    forged.insert(forged.end(), values.begin(), values.end());
    at += 8 + length;
  }
  const auto tail = original.begin() + static_cast<std::ptrdiff_t>(at);
  const auto kept_tail = static_cast<std::ptrdiff_t>(std::min(stored, rows) * kSpcFixedRowBytes);
  forged.insert(forged.end(), tail, tail + kept_tail);
  forged.resize(forged.size() + (rows * kSpcFixedRowBytes - static_cast<std::size_t>(kept_tail)),
                0);
  return forged;
}

TEST(CacheAllocation, ForgedChunkRowCountsAllocateWithinAMultipleOfTheFile) {
  const auto dir = fs::temp_directory_path() / "synscan_spc_alloc";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto path = dir / "capture.pcap.spc";
  const CacheIdentity identity{4096, 1'700'000'000'000'000'000ull};

  // One chunk of 50 probes from three sources; five more frames were
  // backscatter, so the sensor counters sum to 55 frames.
  constexpr std::uint64_t kProbes = 50;
  constexpr std::uint64_t kOtherFrames = 5;
  {
    telescope::ProbeBatch batch;
    for (std::uint32_t i = 0; i < kProbes; ++i) {
      telescope::ScanProbe probe;
      probe.timestamp_us = 1'000'000 + static_cast<net::TimeUs>(i) * 10'000;
      probe.source = net::Ipv4Address(0x05000001u + i % 3);
      probe.destination = net::Ipv4Address(0xc6330000u + i);
      probe.destination_port = static_cast<std::uint16_t>(80 + i % 4);
      probe.sequence = 7 * i;
      batch.push_back(probe);
    }
    telescope::SensorCounters sensor;
    sensor.scan_probes = kProbes;
    sensor.backscatter = kOtherFrames;
    ProbeCacheWriter writer(path, identity);
    writer.append(batch);
    ASSERT_TRUE(writer.commit(kProbes + kOtherFrames, pcap::ReadStatus::kEndOfFile, sensor));
  }
  const auto original = read_file(path);
  ASSERT_EQ(load_field(original, kSpcHeader, 8), kProbes)
      << "the .spc layout moved; re-derive the row count offset";

  // Opens the file and replays every chunk; nullopt when it does not
  // validate, else the rows replayed.
  const auto largest_replay = [&](const std::vector<std::uint8_t>& bytes) {
    write_file(path, bytes);
    largest_request.store(0);
    std::optional<std::uint64_t> rows;
    if (auto reader = ProbeCacheReader::open(path, identity)) {
      telescope::ProbeBatch batch;
      rows = 0;
      while (reader->next_chunk(batch)) *rows += batch.size();
    }
    return std::pair{rows, largest_request.load()};
  };

  const auto [intact_rows, intact_largest] = largest_replay(original);
  EXPECT_EQ(intact_rows, std::optional<std::uint64_t>(kProbes));
  EXPECT_LE(intact_largest, kMaxAmplification * original.size());

  // Row counts below and above the stored one: the chunk's fixed-width
  // tail is cut or zero-padded to the forged count, which the header's
  // probe count, scan-probe counter and frame count then match, and the
  // checksum is recomputed over the chunk. Every forged file is rejected
  // at open or replays exactly the rows it claims; one whose varint
  // columns still hold the stored 50 values is rejected.
  std::size_t validated = 0;
  for (std::uint64_t rows = 1; rows <= 2 * kProbes; ++rows) {
    if (rows == kProbes) continue;
    for (const bool columns_too : {false, true}) {
      SCOPED_TRACE("row count " + std::to_string(rows) +
                   (columns_too ? ", columns cut or padded" : ""));
      auto forged = forge_chunk_rows(original, kProbes, rows, columns_too);
      store_field(forged, kSpcProbeCount, 8, rows);
      store_field(forged, kSpcScanProbes, 8, rows);
      store_field(forged, kSpcFrameCount, 8, rows + kOtherFrames);
      store_field(forged, kSpcChecksum, 8, fnv1a(std::span(forged).subspan(kSpcHeader)));
      const auto [replayed, largest] = largest_replay(forged);
      if (replayed) {
        EXPECT_EQ(*replayed, rows);
        ++validated;
      }
      if (!columns_too) {
        EXPECT_FALSE(replayed.has_value());
      }
      EXPECT_LE(largest, kMaxAmplification * forged.size())
          << "in a file of " << forged.size() << " bytes";
    }
  }
  // The decode behind `next_chunk` must see forged counts, or the bound
  // above covers only `open`: every file whose columns match its count
  // validates.
  EXPECT_EQ(validated, 2 * kProbes - 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace synscan::core
