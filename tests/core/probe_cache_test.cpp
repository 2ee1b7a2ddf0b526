#include "core/probe_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ingest.h"
#include "obs/metrics.h"
#include "pcap/pcap.h"
#include "test_support.h"

namespace synscan::core {
namespace {

namespace fs = std::filesystem;

class ProbeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = dir_ / "capture.pcap";
    cache_ = dir_ / "capture.pcap.spc";
    // A real (tiny) capture, so invalid-cache cases can rescan it: five
    // SYN probes to the dark net and one RST backscatter frame.
    std::vector<net::RawFrame> frames;
    for (std::uint8_t i = 0; i < 5; ++i) {
      frames.push_back({net::TimeUs{i} * 1000,
                        testing::syn_frame(net::Ipv4Address::from_octets(5, 6, 7, 8),
                                           net::Ipv4Address::from_octets(198, 51, 0, i),
                                           80)});
    }
    frames.push_back({9000, testing::syn_frame(net::Ipv4Address::from_octets(5, 6, 7, 9),
                                               net::Ipv4Address::from_octets(198, 51, 0, 1),
                                               80, net::flag_bit(net::TcpFlag::kRst))});
    pcap::write_file(source_, frames);
  }

  [[nodiscard]] CacheIdentity identity() const {
    const auto id = cache_identity(source_);
    EXPECT_TRUE(id.has_value());
    return *id;
  }

  static telescope::ProbeBatch sample_batch(std::size_t rows, std::uint32_t salt) {
    telescope::ProbeBatch batch;
    for (std::size_t i = 0; i < rows; ++i) {
      testing::ProbeBuilder builder;
      builder.at(static_cast<net::TimeUs>(i) * 100)
          .from(net::Ipv4Address(salt + static_cast<std::uint32_t>(i)))
          .port(static_cast<std::uint16_t>(i % 7))
          .seq(salt ^ static_cast<std::uint32_t>(i))
          .ipid(static_cast<std::uint16_t>(i));
      batch.push_back(builder);
    }
    return batch;
  }

  /// Writes `batch` to `path` in one append, all rows as probes.
  void write_cache(const fs::path& path, const telescope::ProbeBatch& batch) const {
    telescope::SensorCounters sensor;
    sensor.scan_probes = batch.size();
    ProbeCacheWriter writer(path, *cache_identity(source_));
    writer.append(batch);
    ASSERT_TRUE(writer.commit(batch.size(), pcap::ReadStatus::kEndOfFile, sensor));
  }

  /// Hand-builds a cache in a retired layout: raw little-endian columns
  /// in one chunk and codec 0 at offset 44 (v1 called it "reserved"),
  /// with a valid checksum and the source's identity — so only the
  /// version/codec gate can reject it.
  void write_raw_layout(std::uint32_t version, const telescope::ProbeBatch& batch) const {
    std::vector<std::uint8_t> chunk;
    const auto le = [&chunk](std::uint64_t v, int width) {
      for (int i = 0; i < width; ++i) {
        chunk.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    };
    le(batch.size(), 8);
    for (std::size_t i = 0; i < batch.size(); ++i) le(static_cast<std::uint64_t>(batch.timestamp_us[i]), 8);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.source[i], 4);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.destination[i], 4);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.source_port[i], 2);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.destination_port[i], 2);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.sequence[i], 4);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.acknowledgment[i], 4);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.ip_id[i], 2);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.window[i], 2);
    for (std::size_t i = 0; i < batch.size(); ++i) le(batch.ttl[i], 1);

    // FNV-1a over little-endian 64-bit words, zero-padded tail.
    std::uint64_t checksum = 0xcbf29ce484222325ull;
    for (std::size_t at = 0; at < chunk.size(); at += 8) {
      std::uint64_t word = 0;
      for (std::size_t i = 0; i < 8 && at + i < chunk.size(); ++i) {
        word |= static_cast<std::uint64_t>(chunk[at + i]) << (8 * i);
      }
      checksum = (checksum ^ word) * 0x100000001b3ull;
    }

    const auto id = identity();
    std::vector<std::uint8_t> header;
    const auto hle = [&header](std::uint64_t v, int width) {
      for (int i = 0; i < width; ++i) {
        header.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    };
    hle(0x31637073, 4);  // "spc1"
    hle(version, 4);
    hle(id.source_size, 8);
    hle(id.source_mtime_ns, 8);
    hle(batch.size(), 8);  // frame_count
    hle(batch.size(), 8);  // probe_count
    hle(0, 4);             // kEndOfFile
    hle(0, 4);             // codec: raw
    hle(batch.size(), 8);  // scan_probes
    for (int i = 0; i < 9; ++i) hle(0, 8);
    hle(checksum, 8);
    ASSERT_EQ(header.size(), 136u);

    std::ofstream out(cache_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(chunk.data()),
              static_cast<std::streamsize>(chunk.size()));
  }

  /// Replays the fixture capture through `ingest_capture`, collecting
  /// every probe in capture order.
  [[nodiscard]] std::pair<IngestResult, telescope::ProbeBatch> ingest(
      bool use_cache, const fs::path& cache_path = {}) const {
    static const telescope::Telescope telescope(
        {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}}, {});
    IngestOptions options;
    options.use_cache = use_cache;
    options.cache_path = cache_path;
    telescope::ProbeBatch probes;
    const auto result = ingest_capture(source_, telescope, options,
                                       [&probes](const telescope::ProbeBatch& batch) {
                                         for (std::size_t i = 0; i < batch.size(); ++i) {
                                           probes.push_back(batch.get(i));
                                         }
                                       });
    return {result, probes};
  }

  /// The cache at `cache_` must read as "no cache": ingest rescans the
  /// capture, gets the uncached result, and rewrites the file in the
  /// current layout (v2, delta codec), which the next run replays.
  void expect_rescan_rewrites_cache() const {
    EXPECT_FALSE(ProbeCacheReader::open(cache_, identity()).has_value());
    const auto [want, want_probes] = ingest(/*use_cache=*/false);
    ASSERT_EQ(want_probes.size(), 5u);

    const auto [rescanned, rescanned_probes] = ingest(/*use_cache=*/true);
    EXPECT_FALSE(rescanned.from_cache);
    EXPECT_EQ(rescanned.frames, want.frames);
    EXPECT_EQ(rescanned.status, want.status);
    EXPECT_EQ(rescanned.sensor.scan_probes, want.sensor.scan_probes);
    EXPECT_EQ(rescanned.sensor.backscatter, want.sensor.backscatter);
    EXPECT_EQ(rescanned.sensor.total(), want.sensor.total());
    ASSERT_EQ(rescanned_probes.size(), want_probes.size());
    expect_rows_equal(rescanned_probes, 0, want_probes, 0, want_probes.size());

    const auto info = cache_stat(cache_);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, 2u);
    EXPECT_EQ(info->codec, kCacheCodecDeltaVarint);
    const auto [warm, warm_probes] = ingest(/*use_cache=*/true);
    EXPECT_TRUE(warm.from_cache);
    ASSERT_EQ(warm_probes.size(), want_probes.size());
    expect_rows_equal(warm_probes, 0, want_probes, 0, want_probes.size());
  }

  static void expect_rows_equal(const telescope::ProbeBatch& got, std::size_t at,
                                const telescope::ProbeBatch& want, std::size_t from,
                                std::size_t rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(got.timestamp_us[at + i], want.timestamp_us[from + i]);
      EXPECT_EQ(got.source[at + i], want.source[from + i]);
      EXPECT_EQ(got.destination[at + i], want.destination[from + i]);
      EXPECT_EQ(got.source_port[at + i], want.source_port[from + i]);
      EXPECT_EQ(got.destination_port[at + i], want.destination_port[from + i]);
      EXPECT_EQ(got.sequence[at + i], want.sequence[from + i]);
      EXPECT_EQ(got.acknowledgment[at + i], want.acknowledgment[from + i]);
      EXPECT_EQ(got.ip_id[at + i], want.ip_id[from + i]);
      EXPECT_EQ(got.window[at + i], want.window[from + i]);
      EXPECT_EQ(got.ttl[at + i], want.ttl[from + i]);
    }
  }

  /// An ingest that could not write its cache must still deliver what
  /// an uncached run delivers.
  void expect_uncached_result(const IngestResult& got,
                              const telescope::ProbeBatch& got_probes) const {
    const auto [want, want_probes] = ingest(/*use_cache=*/false);
    EXPECT_FALSE(got.from_cache);
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.sensor.scan_probes, want.sensor.scan_probes);
    EXPECT_EQ(got.sensor.total(), want.sensor.total());
    ASSERT_EQ(got_probes.size(), want_probes.size());
    expect_rows_equal(got_probes, 0, want_probes, 0, want_probes.size());
  }

  static std::vector<std::uint8_t> slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  const testing::ScratchDir scratch_;
  const fs::path dir_ = scratch_.path();
  fs::path source_;
  fs::path cache_;
};

TEST_F(ProbeCacheTest, WriteReadRoundTrip) {
  const auto id = identity();
  telescope::SensorCounters sensor;
  sensor.scan_probes = 7;
  sensor.malformed = 3;
  sensor.udp = 1;
  sensor.backscatter = 31;  // every frame lands in one counter: 42 in all

  {
    ProbeCacheWriter writer(cache_, id);
    writer.append(sample_batch(4, 100));
    writer.append(sample_batch(3, 900));
    ASSERT_TRUE(writer.commit(42, pcap::ReadStatus::kEndOfFile, sensor));
  }
  EXPECT_EQ(testing::dir_entries(dir_),
            (std::vector<std::string>{"capture.pcap", "capture.pcap.spc"}));

  auto reader = ProbeCacheReader::open(cache_, id);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->frame_count(), 42u);
  EXPECT_EQ(reader->probe_count(), 7u);
  EXPECT_EQ(reader->terminal_status(), pcap::ReadStatus::kEndOfFile);
  EXPECT_EQ(reader->sensor().scan_probes, 7u);
  EXPECT_EQ(reader->sensor().malformed, 3u);
  EXPECT_EQ(reader->sensor().udp, 1u);

  // The writer restages appends into the fixed row grid, so the two
  // small appends come back as one chunk holding all seven rows.
  telescope::ProbeBatch chunk;
  ASSERT_TRUE(reader->next_chunk(chunk));
  ASSERT_EQ(chunk.size(), 7u);
  expect_rows_equal(chunk, 0, sample_batch(4, 100), 0, 4);
  expect_rows_equal(chunk, 4, sample_batch(3, 900), 0, 3);
  EXPECT_FALSE(reader->next_chunk(chunk));
  EXPECT_TRUE(chunk.empty());
}

TEST_F(ProbeCacheTest, FileBytesIndependentOfAppendBatching) {
  const auto batch = sample_batch(23, 500);
  const auto whole = dir_ / "whole.spc";
  const auto split = dir_ / "split.spc";
  write_cache(whole, batch);
  {
    telescope::SensorCounters sensor;
    sensor.scan_probes = batch.size();
    ProbeCacheWriter writer(split, identity());
    telescope::ProbeBatch piece;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      piece.push_back(batch.get(i));
      if (piece.size() == 5 || i + 1 == batch.size()) {
        writer.append(piece);
        piece.clear();
      }
    }
    ASSERT_TRUE(writer.commit(batch.size(), pcap::ReadStatus::kEndOfFile, sensor));
  }
  EXPECT_EQ(slurp(whole), slurp(split));
}

TEST_F(ProbeCacheTest, FixedRowGridSplitsLargeStreams) {
  const auto batch = sample_batch(kCacheRowsPerChunk + 3, 9);
  write_cache(cache_, batch);
  auto reader = ProbeCacheReader::open(cache_, identity());
  ASSERT_TRUE(reader.has_value());
  telescope::ProbeBatch chunk;
  ASSERT_TRUE(reader->next_chunk(chunk));
  EXPECT_EQ(chunk.size(), kCacheRowsPerChunk);
  ASSERT_TRUE(reader->next_chunk(chunk));
  EXPECT_EQ(chunk.size(), 3u);
  EXPECT_FALSE(reader->next_chunk(chunk));
}

TEST_F(ProbeCacheTest, DeltaCodecCompressesCorrelatedColumns) {
  // Sequential timestamps and near-sequential addresses — the shape of
  // real probe streams — must come out smaller than fixed-width columns
  // (33 bytes per row after the header and the row count).
  const auto batch = sample_batch(4096, 1000);
  write_cache(cache_, batch);
  EXPECT_LT(fs::file_size(cache_), 136u + 8u + batch.size() * 33u);
}

TEST_F(ProbeCacheTest, PreservesTruncatedTerminalStatus) {
  const auto id = identity();
  telescope::SensorCounters sensor;
  sensor.scan_probes = 2;
  sensor.other_tcp = 7;  // every frame lands in one counter: 9 in all
  {
    ProbeCacheWriter writer(cache_, id);
    writer.append(sample_batch(2, 5));
    ASSERT_TRUE(writer.commit(9, pcap::ReadStatus::kTruncated, sensor));
  }
  auto reader = ProbeCacheReader::open(cache_, id);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->terminal_status(), pcap::ReadStatus::kTruncated);
}

TEST_F(ProbeCacheTest, StaleIdentityIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(1, 1));
  auto changed = id;
  changed.source_size += 1;
  EXPECT_FALSE(ProbeCacheReader::open(cache_, changed).has_value());
  changed = id;
  changed.source_mtime_ns += 1;
  EXPECT_FALSE(ProbeCacheReader::open(cache_, changed).has_value());
  EXPECT_TRUE(ProbeCacheReader::open(cache_, id).has_value());
}

TEST_F(ProbeCacheTest, BitFlipInCompressedStreamIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(64, 77));
  ASSERT_TRUE(ProbeCacheReader::open(cache_, id).has_value());
  // 136 = header, +8 row count, +8 length prefix: this lands inside the
  // timestamp varint stream. The checksum must catch the flip.
  {
    std::fstream file(cache_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(136 + 8 + 8 + 5);
    const auto byte = file.get();
    file.seekp(136 + 8 + 8 + 5);
    file.put(static_cast<char>(byte ^ 0x10));
  }
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  const auto report = cache_verify(cache_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("checksum"), std::string::npos);
}

TEST_F(ProbeCacheTest, OverlongVarintReplaysEveryRow) {
  // The first timestamp delta (0, one byte) rewritten as an 11-byte
  // varint, with the column length and the checksum matched: the file
  // validates, and a varint decodes to its terminator, so every row
  // replays as written.
  const auto id = identity();
  const auto batch = sample_batch(64, 77);
  write_cache(cache_, batch);
  auto bytes = slurp(cache_);
  constexpr std::size_t kLength = 136 + 8;  // header, then the row count
  constexpr std::size_t kStream = kLength + 8;
  ASSERT_EQ(bytes[kStream], 0u);
  bytes.insert(bytes.begin() + kStream, 10, std::uint8_t{0x80});
  net::store_le64(bytes.data() + kLength, net::load_le64(bytes.data() + kLength) + 10);
  net::store_le64(bytes.data() + 128, fnv1a(std::span(bytes).subspan(136)));
  {
    std::ofstream out(cache_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  auto reader = ProbeCacheReader::open(cache_, id);
  ASSERT_TRUE(reader.has_value());
  telescope::ProbeBatch replayed;
  telescope::ProbeBatch chunk;
  while (reader->next_chunk(chunk)) {
    for (std::size_t i = 0; i < chunk.size(); ++i) replayed.push_back(chunk.get(i));
  }
  ASSERT_EQ(replayed.size(), batch.size());
  expect_rows_equal(replayed, 0, batch, 0, batch.size());
}

TEST_F(ProbeCacheTest, TruncatedCompressedColumnIsRejected) {
  const auto id = identity();
  write_cache(cache_, sample_batch(64, 3));
  // Cut into the fixed-width tail, then deep into the varint region;
  // both must read as "no cache", never as partial probes.
  fs::resize_file(cache_, fs::file_size(cache_) - 5);
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  fs::resize_file(cache_, 136 + 8 + 8 + 3);
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
  EXPECT_NE(cache_verify(cache_).error.find("truncated"), std::string::npos);
  fs::resize_file(cache_, 40);  // even into the header
  EXPECT_FALSE(ProbeCacheReader::open(cache_, id).has_value());
}

TEST_F(ProbeCacheTest, UnsupportedVersionIsRejected) {
  // A future version 3, and a complete file of the retired v1 layout:
  // neither is read; both fall back to a rescan that rewrites the cache.
  {
    SCOPED_TRACE("version 3");
    write_cache(cache_, sample_batch(4, 8));
    {
      std::fstream file(cache_, std::ios::binary | std::ios::in | std::ios::out);
      file.seekp(4);
      file.put('\x03');
    }
    const auto report = cache_verify(cache_);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find("version"), std::string::npos);
    expect_rescan_rewrites_cache();
  }
  {
    SCOPED_TRACE("version 1");
    write_raw_layout(1, sample_batch(2, 55));
    const auto info = cache_stat(cache_);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, 1u);
    EXPECT_NE(cache_verify(cache_).error.find("version"), std::string::npos);
    expect_rescan_rewrites_cache();
  }
}

TEST_F(ProbeCacheTest, UnknownCodecIsRejected) {
  // An unknown codec 9, and a complete v2 file in the retired raw codec
  // 0: neither is read; both fall back to a rescan that rewrites the
  // cache with the delta codec.
  {
    SCOPED_TRACE("codec 9");
    write_cache(cache_, sample_batch(4, 8));
    {
      std::fstream file(cache_, std::ios::binary | std::ios::in | std::ios::out);
      file.seekp(44);
      file.put('\x09');
    }
    EXPECT_NE(cache_verify(cache_).error.find("codec"), std::string::npos);
    expect_rescan_rewrites_cache();
  }
  {
    SCOPED_TRACE("raw codec 0");
    write_raw_layout(2, sample_batch(9, 31));
    const auto info = cache_stat(cache_);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->codec, 0u);
    EXPECT_NE(cache_verify(cache_).error.find("codec"), std::string::npos);
    expect_rescan_rewrites_cache();
  }
}

TEST_F(ProbeCacheTest, StatAndVerifyReportTheFile) {
  write_cache(cache_, sample_batch(12, 42));
  const auto info = cache_stat(cache_);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, 2u);
  EXPECT_EQ(info->codec, kCacheCodecDeltaVarint);
  EXPECT_EQ(info->probe_count, 12u);
  EXPECT_EQ(info->frame_count, 12u);
  EXPECT_EQ(info->sensor.scan_probes, 12u);
  EXPECT_EQ(info->file_size, fs::file_size(cache_));

  auto report = cache_verify(cache_, identity());
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.chunks, 1u);
  EXPECT_EQ(report.rows, 12u);

  auto stale = identity();
  stale.source_size += 1;
  report = cache_verify(cache_, stale);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("stale"), std::string::npos);

  EXPECT_FALSE(cache_stat(dir_ / "missing.spc").has_value());
  EXPECT_FALSE(cache_verify(dir_ / "missing.spc").ok);
}

TEST_F(ProbeCacheTest, AbandonLeavesNoFiles) {
  {
    ProbeCacheWriter writer(cache_, identity());
    writer.append(sample_batch(4, 4));
    // no commit: destructor abandons
  }
  EXPECT_EQ(testing::dir_entries(dir_), std::vector<std::string>{"capture.pcap"});
}

TEST_F(ProbeCacheTest, TwoWritersOfOneCacheEachCommitAWholeFile) {
  // A daemon and a CLI may cut one capture's cache at the same time.
  // Each writer has a temp file of its own, so each commit renames a
  // whole file into place and the last rename wins. (With one shared
  // temp name the second writer wrote on into the file the first had
  // committed, which then stopped validating.)
  const auto id = identity();
  const auto first_batch = sample_batch(7, 100);
  const auto second_batch = sample_batch(3, 900);
  telescope::SensorCounters first_sensor;
  first_sensor.scan_probes = first_batch.size();
  telescope::SensorCounters second_sensor;
  second_sensor.scan_probes = second_batch.size();

  ProbeCacheWriter first(cache_, id);
  first.append(first_batch);
  ProbeCacheWriter second(cache_, id);
  second.append(second_batch);
  ASSERT_TRUE(first.commit(first_batch.size(), pcap::ReadStatus::kEndOfFile, first_sensor));
  auto report = cache_verify(cache_, id);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.rows, first_batch.size());

  ASSERT_TRUE(second.commit(second_batch.size(), pcap::ReadStatus::kEndOfFile,
                            second_sensor));
  report = cache_verify(cache_, id);
  EXPECT_TRUE(report.ok) << report.error;
  auto reader = ProbeCacheReader::open(cache_, id);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->probe_count(), second_batch.size());
  telescope::ProbeBatch chunk;
  ASSERT_TRUE(reader->next_chunk(chunk));
  ASSERT_EQ(chunk.size(), second_batch.size());
  expect_rows_equal(chunk, 0, second_batch, 0, second_batch.size());
  EXPECT_EQ(testing::dir_entries(dir_),
            (std::vector<std::string>{"capture.pcap", "capture.pcap.spc"}));
}

TEST_F(ProbeCacheTest, FailedCommitsLeaveTheRunUncachedAndNoTempFile) {
  // Each run that leaves no cache says so in its result and in the
  // `ingest.cache_write_failures` counter.
  auto& metrics = obs::MetricsRegistry::global();
  metrics.clear();
  obs::set_enabled(true);
  const auto write_failures = [&metrics] {
    return metrics.counter("ingest.cache_write_failures").value();
  };
  {
    SCOPED_TRACE("the cache path is a directory, so no write starts");
    fs::create_directory(cache_);
    std::ofstream(cache_ / "keep") << "obstacle";
    // A temp file created and removed beside the cache would move the
    // directory's mtime past the clock tick it was set in.
    const auto dir_mtime = fs::last_write_time(dir_);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto [got, got_probes] = ingest(/*use_cache=*/true);
    EXPECT_EQ(fs::last_write_time(dir_), dir_mtime);
    EXPECT_FALSE(got.cache_written);
    EXPECT_EQ(write_failures(), 1u);
    expect_uncached_result(got, got_probes);
    EXPECT_EQ(testing::dir_entries(dir_),
              (std::vector<std::string>{"capture.pcap", "capture.pcap.spc"}));
    EXPECT_EQ(testing::dir_entries(cache_), std::vector<std::string>{"keep"});

    fs::remove_all(cache_);
    const auto [cold, cold_probes] = ingest(/*use_cache=*/true);
    EXPECT_TRUE(cold.cache_written);
    EXPECT_EQ(write_failures(), 1u);
    expect_uncached_result(cold, cold_probes);
    EXPECT_TRUE(cache_verify(cache_, identity()).ok);
    const auto warm = ingest(/*use_cache=*/true).first;
    EXPECT_TRUE(warm.from_cache);
    EXPECT_FALSE(warm.cache_written);
    EXPECT_EQ(write_failures(), 1u);
    fs::remove(cache_);
  }
  {
    SCOPED_TRACE("the cache's directory does not exist, so creation fails");
    const auto missing = dir_ / "missing";
    const auto cache = missing / "capture.spc";
    const auto [got, got_probes] = ingest(/*use_cache=*/true, cache);
    EXPECT_FALSE(got.cache_written);
    EXPECT_EQ(write_failures(), 2u);
    expect_uncached_result(got, got_probes);
    EXPECT_EQ(testing::dir_entries(dir_), std::vector<std::string>{"capture.pcap"});

    fs::create_directory(missing);
    const auto [cold, cold_probes] = ingest(/*use_cache=*/true, cache);
    EXPECT_TRUE(cold.cache_written);
    expect_uncached_result(cold, cold_probes);
    EXPECT_EQ(testing::dir_entries(missing), std::vector<std::string>{"capture.spc"});
    EXPECT_TRUE(cache_verify(cache, identity()).ok);
    EXPECT_TRUE(ingest(/*use_cache=*/true, cache).first.from_cache);
    EXPECT_EQ(write_failures(), 2u);
  }
  obs::set_enabled(false);
  metrics.clear();
}

TEST_F(ProbeCacheTest, MissingCacheAndNonRegularSourcesHandled) {
  EXPECT_FALSE(ProbeCacheReader::open(cache_, identity()).has_value());
  EXPECT_FALSE(cache_identity(dir_).has_value());               // a directory
  EXPECT_FALSE(cache_identity(dir_ / "missing.pcap").has_value());
}

}  // namespace
}  // namespace synscan::core
