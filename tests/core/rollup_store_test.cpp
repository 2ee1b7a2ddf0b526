// Tests for the persistent `.spr` rollup store (core/rollup_store.h):
// round-trip fidelity, header stat, and — the part that matters
// operationally — every corruption/staleness mode degrading to a clean
// nullopt so `run_shards` falls back to re-analysis instead of serving
// bad summaries.
#include "core/rollup_store.h"

#include <gtest/gtest.h>

#include <algorithm>
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
#include "test_support.h"

namespace synscan::core {
namespace {

namespace fs = std::filesystem;

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}},
      {{23, 0}});
  return telescope;
}

/// A capture with five sources: a qualifying flow and a small two-port
/// flow at its start (head segments), a small two-port flow and a
/// two-port campaign that start and end more than the expiry inside it
/// (the residual tally's one source and the one campaign), and one late
/// probe (a tail segment), so the rollup exercises campaigns, boundary
/// segments and the residual tally.
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
    emit(0x05000002u, i, 2'600'000 + static_cast<net::TimeUs>(i) * 10'000,
         i % 2 == 0 ? 443 : 8080);
  }
  for (std::uint32_t i = 0; i < 6; ++i) {
    emit(0x05000004u, i, 75 * 60'000'000LL + static_cast<net::TimeUs>(i) * 10'000,
         i % 2 == 0 ? 3389 : 5900);
  }
  for (std::uint32_t i = 0; i < 150; ++i) {
    emit(0x05000003u, i, 90 * 60'000'000LL + static_cast<net::TimeUs>(i) * 10'000,
         i % 2 == 0 ? 22 : 2222);
  }
  emit(0x04000001u, 0, 3 * 60 * 60'000'000LL, 25);
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

  /// Overwrites the `width`-byte little-endian field at `payload_offset`
  /// and recomputes the header checksum, so the crafted payload passes
  /// every header check and reaches the parser (FNV-1a detects
  /// accidents, not forgeries).
  void rewrite_payload(std::size_t payload_offset, std::uint64_t value,
                       std::size_t width) const {
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(rollup_path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_GE(bytes.size(), kHeader + payload_offset + width);
    for (std::size_t i = 0; i < width; ++i) {
      bytes[kHeader + payload_offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    net::store_le64(bytes.data() + 56, fnv1a(std::span(bytes).subspan(kHeader)));
    std::ofstream out(rollup_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// `.spr` header size; the payload follows it.
  static constexpr std::size_t kHeader = 64;
};

/// The equality surface: the report JSON the merged analysis serves.
std::string report_text(const ShardRunResult& run) {
  std::string out;
  report::append_counters_json(out, run.analysis.result);
  out.push_back('\n');
  report::append_campaigns_jsonl(out, run.analysis.result.campaigns);
  return out;
}

std::string report_of(const fs::path& capture_path, bool use_store) {
  const std::vector<fs::path> captures = {capture_path};
  const auto plan = plan_shards(captures);
  ShardRunOptions options;
  options.workers = 1;
  options.use_rollup_store = use_store;
  options.ingest.use_cache = false;
  return report_text(run_shards(plan, test_telescope(),
                                enrich::InternetRegistry::synthetic_default(),
                                TrackerConfig{}, options));
}

TEST_F(StoreFixture, SaveLoadRoundTrip) {
  const auto rollup = analyze();
  save(rollup);
  const auto loaded = load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->frames, rollup.frames);
  EXPECT_EQ(loaded->first_probe_us, 1'000'000);
  EXPECT_EQ(loaded->first_probe_us, rollup.first_probe_us);
  EXPECT_EQ(loaded->max_timestamp_us, rollup.max_timestamp_us);
  EXPECT_EQ(loaded->sensor.scan_probes, rollup.sensor.scan_probes);
  EXPECT_EQ(loaded->campaigns.size(), rollup.campaigns.size());
  ASSERT_EQ(loaded->segments.size(), rollup.segments.size());
  ASSERT_GT(rollup.residual_ports.total_sources(), 0u);
  EXPECT_EQ(loaded->residual_ports.total_packets(), rollup.residual_ports.total_packets());
  ASSERT_EQ(loaded->residual_ports.total_sources(), rollup.residual_ports.total_sources());
  for (const auto& [source, ports] : rollup.residual_ports.per_source()) {
    const auto* stored = loaded->residual_ports.per_source().find(source);
    ASSERT_NE(stored, nullptr) << source;
    EXPECT_EQ(stored->size(), ports.size()) << source;
    for (const auto [port, packets] : ports) EXPECT_EQ(stored->get(port), packets) << port;
  }
}

TEST_F(StoreFixture, RollupBytesDoNotDependOnTheProbeCache) {
  // A shard's `.spr` built cold (the run writes the `.spc` too) and one
  // rebuilt from that `.spc` are the same bytes; a store hit then reports
  // a cached result.
  const auto run_store = [&] {
    ShardRunOptions options;
    options.workers = 1;
    return run_shards(plan_shards(std::vector<fs::path>{capture}), test_telescope(),
                      enrich::InternetRegistry::synthetic_default(), TrackerConfig{},
                      options);
  };
  const auto read_rollup = [&] {
    std::ifstream in(rollup_path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  };

  const auto cold = run_store();
  EXPECT_EQ(cold.stats.store_writes, 1u);
  EXPECT_FALSE(cold.analysis.from_cache);
  ASSERT_TRUE(fs::exists(capture.string() + ".spc"));
  const auto cold_bytes = read_rollup();
  ASSERT_FALSE(cold_bytes.empty());

  fs::remove(rollup_path);
  const auto warm = run_store();
  EXPECT_EQ(warm.stats.store_misses, 1u);
  EXPECT_EQ(warm.stats.store_writes, 1u);
  EXPECT_TRUE(warm.analysis.from_cache);  // the probes came from the `.spc`
  EXPECT_TRUE(read_rollup() == cold_bytes) << "the .spr rebuilt from the .spc differs";

  const auto hit = run_store();
  EXPECT_EQ(hit.stats.store_hits, 1u);
  EXPECT_TRUE(hit.analysis.from_cache);
  EXPECT_EQ(report_text(hit), report_text(cold));
}

TEST_F(StoreFixture, StatReportsStoredHeader) {
  const auto rollup = analyze();
  save(rollup);
  const auto info = rollup_stat(rollup_path);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, 4u);
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
  ASSERT_EQ(stored->campaigns.size(), 1u);
  ASSERT_EQ(stored->segments.size(), 3u);
  const auto stored_word = [&](std::size_t payload_offset, std::size_t width) {
    std::ifstream in(rollup_path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(kHeader + payload_offset));
    std::uint8_t word[8] = {};
    in.read(reinterpret_cast<char*>(word), static_cast<std::streamsize>(width));
    return net::load_le64(word);
  };

  // Payload offsets of the tracker counters, the campaign and the
  // segments: the fixed prefix (frames, status, first and max probe
  // timestamps, 10 sensor and 11 tracker counters, `probes` first) and
  // the campaign count, then a campaign's 65 fixed bytes and its u32
  // port count; after the campaigns, the segment count, then per segment
  // 37 fixed bytes (the last a u64 destination count), the destinations,
  // a u32 port count and its rows, and 122 bytes of fingerprint evidence
  // (`probes` first).
  const std::size_t tracker_probes_at = 8 + 4 + 2 * 8 + 10 * 8;
  ASSERT_EQ(stored_word(tracker_probes_at, 8), stored->tracker.probes)
      << "the .spr layout moved; re-derive the tracker offset";
  const std::size_t campaign_at = tracker_probes_at + 11 * 8 + 8;
  const auto& campaign = stored->campaigns.front();
  std::vector<std::size_t> segment_at = {campaign_at + 69 +
                                         10 * campaign.port_packets.size() + 8};
  for (const auto& segment : stored->segments) {
    segment_at.push_back(segment_at.back() + 37 + 4 * segment.destinations.size() + 4 +
                         10 * segment.port_packets.size() + 122);
  }
  const auto ports_at = [&](std::size_t k) {
    return segment_at[k] + 37 + 4 * stored->segments[k].destinations.size();
  };
  const auto evidence_at = [&](std::size_t k) {
    return ports_at(k) + 4 + 10 * stored->segments[k].port_packets.size();
  };
  const std::size_t first_ports = ports_at(0);
  ASSERT_EQ(stored_word(first_ports, 4), stored->segments.front().port_packets.size())
      << "the .spr layout moved; re-derive the port count offset";

  // The campaign's two ports (22, 2222); the second flow's destinations;
  // the third flow's two ports (443, 8080).
  ASSERT_EQ(campaign.port_packets.size(), 2u);
  ASSERT_EQ(stored_word(campaign_at + 65, 4), 2u);
  ASSERT_EQ(stored_word(campaign_at + 69, 2), 22u)
      << "the .spr layout moved; re-derive the campaign row offset";
  const std::size_t campaign_second_port = campaign_at + 69 + 10;
  ASSERT_GE(stored->segments[1].destinations.size(), 2u);
  const std::size_t segment_first_destination = segment_at[1] + 37;
  ASSERT_EQ(stored_word(segment_first_destination, 4), stored->segments[1].destinations[0])
      << "the .spr layout moved; re-derive the destination offset";
  ASSERT_EQ(stored->segments[2].port_packets.size(), 2u);
  ASSERT_EQ(stored_word(ports_at(2) + 4, 2), 443u)
      << "the .spr layout moved; re-derive the segment row offset";
  const std::size_t segment_second_port = ports_at(2) + 4 + 10;
  ASSERT_EQ(stored_word(evidence_at(2), 8), stored->segments[2].packets)
      << "the .spr layout moved; re-derive the evidence offset";

  // Payload offsets into the residual tally section, which ends the
  // payload: u64 source count, then per ascending source a u32 source, a
  // u32 row count and (u16 port, u64 packets) rows in ascending port
  // order.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint16_t>>> sources;
  for (const auto& [source, ports] : stored->residual_ports.per_source()) {
    std::vector<std::uint16_t> sorted;
    for (const auto [port, packets] : ports) sorted.push_back(port);
    std::sort(sorted.begin(), sorted.end());
    sources.emplace_back(source, std::move(sorted));
  }
  std::sort(sources.begin(), sources.end());
  ASSERT_FALSE(sources.empty());
  ASSERT_GE(sources.back().second.size(), 2u);
  std::size_t tally_size = 8;
  for (const auto& [source, ports] : sources) tally_size += 8 + 10 * ports.size();
  const auto payload_size = static_cast<std::size_t>(rollup_stat(rollup_path)->payload_size);
  const std::size_t first_rows = payload_size - tally_size + 8 + 4;
  const std::size_t last_port = payload_size - 10;
  const std::uint16_t repeated_port = sources.back().second.end()[-2];
  const auto last_packets =
      stored->residual_ports.per_source().find(sources.back().first)->get(
          sources.back().second.back());
  {
    std::ifstream in(rollup_path, std::ios::binary);
    std::uint8_t word[4] = {};
    in.seekg(static_cast<std::streamoff>(kHeader + first_rows));
    in.read(reinterpret_cast<char*>(word), 4);
    ASSERT_EQ(net::load_le32(word), sources.front().second.size())
        << "the .spr layout moved; re-derive the row count offset";
    in.seekg(static_cast<std::streamoff>(kHeader + last_port));
    in.read(reinterpret_cast<char*>(word), 2);
    ASSERT_EQ(net::load_le16(word), sources.back().second.back())
        << "the .spr layout moved; re-derive the last port offset";
  }

  // Each defect must cost a re-analysis (a miss), rewrite the rollup and
  // still produce the reference report; the rewrite heals the store, so
  // the next run hits and serves the same report.
  const std::vector<std::pair<std::string, std::function<void()>>> defects = {
      {"flipped payload byte", [&] { corrupt_byte(10); }},
      {"first segment's port count 0xfffffff0",
       [&] { rewrite_payload(first_ports, 0xfffffff0u, 4); }},
      {"terminal status 9", [&] { rewrite_payload(8, 9, 4); }},
      {"first tally source's row count 0xfffffff0",
       [&] { rewrite_payload(first_rows, 0xfffffff0u, 4); }},
      {"last tally source's last port repeated",
       [&] { rewrite_payload(last_port, repeated_port, 2); }},
      {"a campaign's port repeated",
       [&] { rewrite_payload(campaign_second_port, 22, 2); }},
      {"a segment's destinations out of order",
       [&] { rewrite_payload(segment_first_destination, 0xffffffffu, 4); }},
      {"a segment's port repeated",
       [&] { rewrite_payload(segment_second_port, 443, 2); }},
      // Each packet identity broken alone, the counts beside it intact.
      {"a campaign's rows sum past its packets",
       [&] { rewrite_payload(campaign_at + 69 + 2, campaign.port_packets.get(22) + 1, 8); }},
      {"a segment's rows sum past its packets",
       [&] {
         rewrite_payload(ports_at(2) + 4 + 2, stored->segments[2].port_packets.get(443) + 1, 8);
       }},
      {"a segment's evidence counts a probe more than its packets",
       [&] { rewrite_payload(evidence_at(2), stored->segments[2].packets + 1, 8); }},
      {"the residual sums past the sub-threshold packets",
       [&] { rewrite_payload(last_port + 2, last_packets + 1, 8); }},
      {"the tracker counts a probe no campaign, segment or residual holds",
       [&] { rewrite_payload(tracker_probes_at, stored->tracker.probes + 1, 8); }},
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
    EXPECT_EQ(run_store().stats.store_hits, 1u);
    EXPECT_EQ(report_of(capture, true), reference);
  }
}

TEST_F(StoreFixture, VersionOneFileIsAMissAndIsRewritten) {
  // Version 1 had three tally sections, version 2 no first probe time,
  // version 3 the full tally; the store keeps no reader for any of
  // them, so the rest of the file does not matter.
  for (const std::uint32_t old_version : {1u, 2u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(old_version));
    save(analyze());
    {
      std::fstream file(rollup_path, std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(file.is_open());
      std::uint8_t version[4] = {};
      net::store_le32(version, old_version);
      file.seekp(4);
      file.write(reinterpret_cast<const char*>(version), 4);
    }
    ASSERT_EQ(rollup_stat(rollup_path)->version, old_version);
    EXPECT_FALSE(load().has_value());

    ShardRunOptions options;
    options.workers = 1;
    options.ingest.use_cache = false;
    const auto run = run_shards(plan_shards(std::vector<fs::path>{capture}),
                                test_telescope(),
                                enrich::InternetRegistry::synthetic_default(),
                                TrackerConfig{}, options);
    EXPECT_EQ(run.stats.store_misses, 1u);
    EXPECT_EQ(run.stats.store_writes, 1u);
    EXPECT_EQ(rollup_stat(rollup_path)->version, 4u);
    EXPECT_TRUE(load().has_value());
  }
}

TEST_F(StoreFixture, FailedCommitsRunStoreOffAndLeaveNoTempFile) {
  // Two obstacles that fail a sidecar commit whatever the file
  // permissions (the suite may run as root): a directory where the
  // `.spr` goes, so its rename fails, and a `.spc` path in a directory
  // that does not exist, so its temp file cannot be created. The run
  // must serve the store-off report, write nothing and leave the
  // obstacles as they were; once they are gone, the next run writes.
  const auto reference = report_of(capture, false);
  const auto spc_dir = dir / "missing";
  const auto spc = spc_dir / "capture.spc";
  const auto run_store = [&] {
    ShardRunOptions options;
    options.workers = 1;
    options.ingest.cache_path = spc;
    return run_shards(plan_shards(std::vector<fs::path>{capture}), test_telescope(),
                      enrich::InternetRegistry::synthetic_default(), TrackerConfig{},
                      options);
  };
  fs::create_directory(rollup_path);
  std::ofstream(rollup_path / "keep") << "obstacle";

  const auto blocked = run_store();
  EXPECT_EQ(blocked.stats.store_hits, 0u);
  EXPECT_EQ(blocked.stats.store_misses, 1u);
  EXPECT_EQ(blocked.stats.store_writes, 0u);
  EXPECT_EQ(report_text(blocked), reference);
  EXPECT_EQ(testing::dir_entries(dir),
            (std::vector<std::string>{"capture.pcap", "capture.pcap.spr"}));
  EXPECT_EQ(testing::dir_entries(rollup_path), std::vector<std::string>{"keep"});

  fs::remove_all(rollup_path);
  fs::create_directory(spc_dir);
  const auto healed = run_store();
  EXPECT_EQ(healed.stats.store_writes, 1u);
  EXPECT_EQ(report_text(healed), reference);
  EXPECT_TRUE(load().has_value());
  EXPECT_TRUE(cache_verify(spc, identity).ok);
  EXPECT_EQ(testing::dir_entries(spc_dir), std::vector<std::string>{"capture.spc"});
  EXPECT_EQ(run_store().stats.store_hits, 1u);
}

}  // namespace
}  // namespace synscan::core
