// Tests for the persistent `.spr` rollup store (core/rollup_store.h):
// round-trip fidelity, header stat, and — the part that matters
// operationally — every corruption/staleness mode degrading to a clean
// nullopt so `run_shards` falls back to re-analysis instead of serving
// bad summaries.
#include "core/rollup_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/shard.h"
#include "net/endian.h"
#include "net/packet.h"
#include "pcap/pcap.h"
#include "report/json.h"

namespace synscan::core {
namespace {

namespace fs = std::filesystem;

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}},
      {{23, 0}});
  return telescope;
}

/// A capture with two sources: one qualifying campaign plus one small
/// flow left open at stream end, so the rollup exercises campaigns,
/// boundary segments and all three tallies.
void write_capture(const fs::path& path) {
  auto writer = pcap::Writer::create(path);
  net::RawFrame frame;
  const auto emit = [&](std::uint32_t source, std::uint32_t dest, net::TimeUs ts,
                        std::uint16_t port) {
    net::TcpFrameSpec tcp;
    tcp.src_ip = net::Ipv4Address(source);
    tcp.dst_ip = net::Ipv4Address(0xc6330000u + dest);
    tcp.src_port = 44444;
    tcp.dst_port = port;
    tcp.sequence = 7 + dest;
    frame.timestamp_us = ts;
    frame.bytes = net::build_tcp_frame(tcp);
    writer.write(frame);
  };
  for (std::uint32_t i = 0; i < 150; ++i) {
    emit(0x05000001u, i, 1'000'000 + static_cast<net::TimeUs>(i) * 10'000, 80);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    emit(0x05000002u, i, 2'600'000 + static_cast<net::TimeUs>(i) * 10'000, 443);
  }
  writer.flush();
}

struct StoreFixture : ::testing::Test {
  fs::path dir;
  fs::path capture;
  fs::path rollup_path;
  CacheIdentity identity;
  std::uint64_t fingerprint = 0;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir = fs::temp_directory_path() /
          (std::string("synscan_spr_") + info->name());
    fs::remove_all(dir);
    fs::create_directories(dir);
    capture = dir / "capture.pcap";
    write_capture(capture);
    rollup_path = rollup_path_for(capture);
    const auto id = cache_identity(capture);
    ASSERT_TRUE(id.has_value());
    identity = *id;
    fingerprint =
        analysis_fingerprint(TrackerConfig{}, test_telescope().monitored_count());
  }
  void TearDown() override { fs::remove_all(dir); }

  [[nodiscard]] CaptureRollup analyze() const {
    IngestOptions ingest;
    ingest.use_cache = false;
    return analyze_shard(capture, test_telescope(),
                         enrich::InternetRegistry::synthetic_default(),
                         TrackerConfig{}, ingest);
  }

  void save(const CaptureRollup& rollup) const {
    ASSERT_TRUE(save_rollup(rollup_path, rollup, identity, fingerprint));
  }

  [[nodiscard]] std::optional<CaptureRollup> load() const {
    return load_rollup(rollup_path, enrich::InternetRegistry::synthetic_default(),
                       identity, fingerprint);
  }

  /// Flips one payload byte in place (offset from the end stays clear of
  /// the 64-byte header for any non-trivial payload).
  void corrupt_byte(std::uint64_t offset_from_end) const {
    std::fstream file(rollup_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(file.tellg());
    ASSERT_GT(size, 64u + offset_from_end);
    const auto pos = static_cast<std::streamoff>(size - 1 - offset_from_end);
    file.seekg(pos);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(pos);
    file.write(&byte, 1);
  }

  /// Overwrites the u32 at `payload_offset` and recomputes the header
  /// checksum, so the crafted payload passes every header check and
  /// reaches the parser (FNV-1a detects accidents, not forgeries).
  void rewrite_payload_u32(std::size_t payload_offset, std::uint32_t value) const {
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(rollup_path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_GE(bytes.size(), kHeader + payload_offset + 4);
    net::store_le32(bytes.data() + kHeader + payload_offset, value);
    net::store_le64(bytes.data() + 56, fnv1a(std::span(bytes).subspan(kHeader)));
    std::ofstream out(rollup_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// `.spr` v1 header size; the payload follows it.
  static constexpr std::size_t kHeader = 64;
};

/// The equality surface: the report JSON the merged analysis serves.
std::string report_of(const fs::path& capture_path, bool use_store) {
  const std::vector<fs::path> captures = {capture_path};
  const auto plan = plan_shards(captures);
  ShardRunOptions options;
  options.workers = 1;
  options.use_rollup_store = use_store;
  options.ingest.use_cache = false;
  auto run = run_shards(plan, test_telescope(),
                        enrich::InternetRegistry::synthetic_default(),
                        TrackerConfig{}, options);
  std::string out;
  report::append_counters_json(out, run.analysis.result);
  out.push_back('\n');
  report::append_campaigns_jsonl(out, run.analysis.result.campaigns);
  return out;
}

TEST_F(StoreFixture, SaveLoadRoundTrip) {
  const auto rollup = analyze();
  save(rollup);
  const auto loaded = load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->frames, rollup.frames);
  EXPECT_EQ(loaded->max_timestamp_us, rollup.max_timestamp_us);
  EXPECT_EQ(loaded->sensor.scan_probes, rollup.sensor.scan_probes);
  EXPECT_EQ(loaded->campaigns.size(), rollup.campaigns.size());
  ASSERT_EQ(loaded->segments.size(), rollup.segments.size());
  EXPECT_EQ(loaded->ports.total_packets(), rollup.ports.total_packets());
  EXPECT_EQ(loaded->ports.total_sources(), rollup.ports.total_sources());
  EXPECT_EQ(loaded->types.total_packets(), rollup.types.total_packets());
  EXPECT_EQ(loaded->geo.total_packets(), rollup.geo.total_packets());
}

TEST_F(StoreFixture, StatReportsStoredHeader) {
  const auto rollup = analyze();
  save(rollup);
  const auto info = rollup_stat(rollup_path);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->source_size, identity.source_size);
  EXPECT_EQ(info->source_mtime_ns, identity.source_mtime_ns);
  EXPECT_EQ(info->analysis_fingerprint, fingerprint);
  EXPECT_EQ(info->campaigns, rollup.campaigns.size());
  EXPECT_EQ(info->segments, rollup.segments.size());
  EXPECT_EQ(info->file_size, 64u + info->payload_size);
}

TEST_F(StoreFixture, StatMissingFileIsNullopt) {
  EXPECT_FALSE(rollup_stat(dir / "nope.spr").has_value());
}

TEST_F(StoreFixture, CorruptPayloadByteInvalidatesRollup) {
  save(analyze());
  corrupt_byte(10);
  EXPECT_FALSE(load().has_value());
}

TEST_F(StoreFixture, TruncatedFileInvalidatesRollup) {
  save(analyze());
  const auto size = fs::file_size(rollup_path);
  fs::resize_file(rollup_path, size - 7);
  EXPECT_FALSE(load().has_value());
  // Truncated below the header, stat fails too.
  fs::resize_file(rollup_path, 32);
  EXPECT_FALSE(rollup_stat(rollup_path).has_value());
  EXPECT_FALSE(load().has_value());
}

TEST_F(StoreFixture, StaleSourceIdentityInvalidatesRollup) {
  save(analyze());
  CacheIdentity changed = identity;
  changed.source_size += 1;
  EXPECT_FALSE(load_rollup(rollup_path,
                           enrich::InternetRegistry::synthetic_default(), changed,
                           fingerprint)
                   .has_value());
  changed = identity;
  changed.source_mtime_ns += 1;
  EXPECT_FALSE(load_rollup(rollup_path,
                           enrich::InternetRegistry::synthetic_default(), changed,
                           fingerprint)
                   .has_value());
}

TEST_F(StoreFixture, AnalysisConfigChangeInvalidatesRollup) {
  save(analyze());
  TrackerConfig tightened;
  tightened.min_distinct_destinations *= 2;
  const auto other =
      analysis_fingerprint(tightened, test_telescope().monitored_count());
  ASSERT_NE(other, fingerprint);
  EXPECT_FALSE(load_rollup(rollup_path,
                           enrich::InternetRegistry::synthetic_default(), identity,
                           other)
                   .has_value());
}

TEST_F(StoreFixture, SweepIntervalDoesNotInvalidateRollup) {
  // Results are sweep-schedule-independent, so retuning the sweep must
  // keep a decade of cached shards valid.
  TrackerConfig retuned;
  retuned.sweep_interval *= 4;
  EXPECT_EQ(analysis_fingerprint(retuned, test_telescope().monitored_count()),
            fingerprint);
}

TEST_F(StoreFixture, RunShardsFallsBackToReanalysisOnCorruptRollup) {
  const auto reference = report_of(capture, false);
  const auto run_store = [&] {
    const auto plan = plan_shards(std::vector<fs::path>{capture});
    ShardRunOptions options;
    options.workers = 1;
    options.ingest.use_cache = false;
    return run_shards(plan, test_telescope(),
                      enrich::InternetRegistry::synthetic_default(), TrackerConfig{},
                      options);
  };

  // Build the store.
  {
    const auto built = run_store();
    EXPECT_EQ(built.stats.store_misses, 1u);
    EXPECT_EQ(built.stats.store_writes, 1u);
  }
  const auto stored = load();
  ASSERT_TRUE(stored.has_value());
  ASSERT_FALSE(stored->segments.empty());

  // Payload offset of the first segment's u32 port count: the fixed
  // prefix (frames, status, from_cache, max timestamp, 10 sensor and 11
  // tracker counters), the campaign count and rows, the segment count,
  // then the segment's fixed fields and destination list.
  std::size_t first_ports = 8 + 4 + 1 + 8 + 10 * 8 + 11 * 8 + 8;
  for (const auto& campaign : stored->campaigns) {
    first_ports += 69 + 10 * campaign.port_packets.size();
  }
  first_ports += 8 + 4 + 1 + 3 * 8 + 8 + 4 * stored->segments.front().destinations.size();
  {
    std::ifstream in(rollup_path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(kHeader + first_ports));
    std::uint8_t word[4] = {};
    in.read(reinterpret_cast<char*>(word), 4);
    ASSERT_EQ(net::load_le32(word), stored->segments.front().port_packets.size())
        << "the .spr layout moved; re-derive the port count offset";
  }

  // Each defect must cost a re-analysis (a miss), rewrite the rollup and
  // still produce the reference report; the rewrite heals the store, so
  // the next run hits.
  const std::vector<std::pair<std::string, std::function<void()>>> defects = {
      {"flipped payload byte", [&] { corrupt_byte(10); }},
      {"first segment's port count 0xfffffff0",
       [&] { rewrite_payload_u32(first_ports, 0xfffffff0u); }},
      {"terminal status 9", [&] { rewrite_payload_u32(8, 9); }},
  };
  for (const auto& [label, corrupt] : defects) {
    SCOPED_TRACE(label);
    corrupt();
    EXPECT_FALSE(load().has_value());
    auto run = run_store();
    EXPECT_EQ(run.stats.store_hits, 0u);
    EXPECT_EQ(run.stats.store_misses, 1u);
    EXPECT_EQ(run.stats.store_writes, 1u);
    std::string out;
    report::append_counters_json(out, run.analysis.result);
    out.push_back('\n');
    report::append_campaigns_jsonl(out, run.analysis.result.campaigns);
    EXPECT_EQ(out, reference);
    EXPECT_EQ(report_of(capture, true), reference);
  }
}

}  // namespace
}  // namespace synscan::core
