// Differential test for the decade-scale rollup layer: splitting a
// capture into shards, analyzing each shard independently and merging
// the rollups (core/rollup.h, core/shard.h) must produce a report that
// is byte-for-byte identical to analyzing the whole capture in one
// pass — for any shard count, at any split boundary (including
// mid-campaign), and whether the shards were re-analyzed or served from
// the persistent `.spr` store.
#include "core/shard.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis_session.h"
#include "core/rollup_store.h"
#include "pcap/pcap.h"
#include "report/json.h"
#include "simgen/generator.h"
#include "test_support.h"

namespace synscan {
namespace {

namespace fs = std::filesystem;

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}},
      {{23, 0}});
  return telescope;
}

/// A one-day window with several overlapping campaigns plus noise, so
/// any shard boundary lands inside at least one open flow and the
/// boundary-carry merge actually has seams to join.
simgen::YearConfig capture_config() {
  simgen::YearConfig config;
  config.year = 2021;
  config.window_days = 1;
  config.seed = 20240809;
  config.port_table = {{80, 50}, {23, 25}, {443, 25}};
  config.noise_sources = 40;
  config.backscatter_fraction = 0.1;

  simgen::GroupSpec group;
  group.name = "rollup-group";
  group.tool = simgen::WireTool::kZmap;
  group.pool = enrich::ScannerType::kHosting;
  group.sources = 6;
  group.campaigns = 5;
  group.hits_median = 300;
  group.hits_sigma = 1.2;
  group.pps_median = 500000;
  group.pps_sigma = 1.1;
  config.groups.push_back(group);
  return config;
}

/// The served report surface: pipeline counters JSON, then the campaign
/// JSONL — exactly what `analyze --json` and `rollup query` emit.
std::string report_bytes(const core::AnalyzedCapture& analysis) {
  std::string out;
  report::append_counters_json(out, analysis.result);
  out.push_back('\n');
  report::append_campaigns_jsonl(out, analysis.result.campaigns);
  return out;
}

class RollupDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs cases as parallel processes, and
    // a shared dir would let one case's TearDown delete another's files.
    dir_ = fs::temp_directory_path() /
           (std::string("synscan_rollup_differential_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    whole_ = dir_ / "whole.pcap";

    auto writer = pcap::Writer::create(whole_);
    simgen::TrafficGenerator generator(capture_config(), test_telescope(),
                                       enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& f) { writer.write(f); });
    writer.flush();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Splits the whole capture's records into `count` consecutive runs
  /// at uneven boundaries (run i gets a slice proportional to i+1, so the
  /// seams never align with anything natural in the traffic).
  [[nodiscard]] std::vector<std::vector<net::RawFrame>> split_frames(std::size_t count) const {
    std::uint64_t total = 0;
    {
      auto reader = pcap::Reader::open(whole_);
      net::RawFrame frame;
      while (reader.next(frame) == pcap::ReadStatus::kOk) ++total;
    }
    const std::uint64_t weight_sum = count * (count + 1) / 2;

    std::vector<std::vector<net::RawFrame>> runs(count);
    auto reader = pcap::Reader::open(whole_);
    net::RawFrame frame;
    std::uint64_t written = 0;
    for (std::size_t i = 0; i < count; ++i) {
      // Last run takes the remainder.
      const std::uint64_t quota =
          i + 1 == count ? total - written : total * (i + 1) / weight_sum;
      for (std::uint64_t n = 0; n < quota && reader.next(frame) == pcap::ReadStatus::kOk;
           ++n) {
        runs[i].push_back(frame);
        ++written;
      }
    }
    EXPECT_EQ(written, total);
    return runs;
  }

  /// `split_frames` written out as `count` classic pcap shards.
  [[nodiscard]] std::vector<fs::path> split_capture(std::size_t count) const {
    std::vector<fs::path> shards;
    const auto runs = split_frames(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto path = dir_ / ("shard_" + std::to_string(count) + "_" +
                          std::to_string(i) + ".pcap");
      auto writer = pcap::Writer::create(path);
      for (const auto& frame : runs[i]) writer.write(frame);
      writer.flush();
      shards.push_back(std::move(path));
    }
    return shards;
  }

  [[nodiscard]] core::ShardRunResult run(const std::vector<fs::path>& captures,
                                         bool use_store,
                                         std::size_t workers) const {
    const auto plan = core::plan_shards(captures);
    core::ShardRunOptions options;
    options.workers = workers;
    options.use_rollup_store = use_store;
    options.ingest.use_cache = false;
    return core::run_shards(plan, test_telescope(),
                            enrich::InternetRegistry::synthetic_default(),
                            core::TrackerConfig{}, options);
  }

  fs::path dir_;
  fs::path whole_;
};

TEST_F(RollupDifferential, MergedShardsMatchWholeCaptureByteForByte) {
  core::IngestOptions ingest;
  ingest.use_cache = false;
  const auto whole = core::analyze_capture(whole_, test_telescope(),
                                           enrich::InternetRegistry::synthetic_default(),
                                           1, ingest);
  ASSERT_GT(whole.result.sensor.scan_probes, 0u);
  ASSERT_GT(whole.result.campaigns.size(), 1u);
  const auto reference = report_bytes(whole);

  for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{7}}) {
    const auto shards = split_capture(count);
    const auto merged = run(shards, false, 2);
    EXPECT_EQ(merged.stats.shards, count);
    EXPECT_EQ(report_bytes(merged.analysis), reference)
        << count << " shards diverged from the whole-capture analysis";
    // The merged streaming tallies agree too (the report surface only
    // covers counters + campaigns; these feed the analytics commands).
    EXPECT_EQ(merged.analysis.frames, whole.frames) << count << " shards";
    EXPECT_EQ(merged.analysis.ports.total_packets(), whole.ports.total_packets());
    EXPECT_EQ(merged.analysis.ports.total_sources(), whole.ports.total_sources());
    EXPECT_EQ(merged.analysis.types.total_sources(), whole.types.total_sources());
    EXPECT_EQ(merged.analysis.geo.total_packets(), whole.geo.total_packets());
  }
}

TEST_F(RollupDifferential, IncrementalStorePathStaysByteIdentical) {
  core::IngestOptions ingest;
  ingest.use_cache = false;
  const auto whole = core::analyze_capture(whole_, test_telescope(),
                                           enrich::InternetRegistry::synthetic_default(),
                                           1, ingest);
  const auto reference = report_bytes(whole);

  const auto shards = split_capture(3);

  // Build pass: every shard analyzed and persisted.
  const auto built = run(shards, true, 2);
  EXPECT_EQ(built.stats.store_misses, 3u);
  EXPECT_EQ(built.stats.store_writes, 3u);
  EXPECT_EQ(report_bytes(built.analysis), reference);

  // Warm pass: everything served from the store.
  const auto warm = run(shards, true, 2);
  EXPECT_EQ(warm.stats.store_hits, 3u);
  EXPECT_EQ(warm.stats.store_misses, 0u);
  EXPECT_EQ(report_bytes(warm.analysis), reference);

  // Incremental pass: one rollup dropped — only that shard re-analyzes,
  // and the mixed loaded/recomputed merge still matches exactly.
  fs::remove(core::rollup_path_for(shards[1]));
  const auto incremental = run(shards, true, 2);
  EXPECT_EQ(incremental.stats.store_hits, 2u);
  EXPECT_EQ(incremental.stats.store_misses, 1u);
  EXPECT_EQ(incremental.stats.store_writes, 1u);
  EXPECT_EQ(report_bytes(incremental.analysis), reference);
}

TEST_F(RollupDifferential, PcapngShardsPlanByCaptureTime) {
  // The same day as three time-ordered pcapng shards whose names run
  // against capture time: the plan must order them by first record, not
  // by path, for the merge to match the whole capture.
  core::IngestOptions ingest;
  ingest.use_cache = false;
  const auto whole = core::analyze_capture(whole_, test_telescope(),
                                           enrich::InternetRegistry::synthetic_default(),
                                           1, ingest);
  const auto reference = report_bytes(whole);

  const auto runs = split_frames(3);
  std::vector<fs::path> shards;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    testing::NgBuilder builder;
    builder.section_header().interface_block();
    for (const auto& frame : runs[i]) {
      builder.enhanced_packet(0, static_cast<std::uint64_t>(frame.timestamp_us), frame.bytes);
    }
    // shard_c.pcapng holds the earliest traffic, shard_a.pcapng the latest.
    shards.push_back(dir_ / ("shard_" + std::string(1, static_cast<char>('c' - i)) + ".pcapng"));
    builder.write(shards.back());
  }

  const auto plan = core::plan_shards(shards);
  ASSERT_EQ(plan.shards.size(), shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(plan.shards[i].capture, shards[i]) << "plan position " << i;
  }
  const auto merged = run(shards, false, 2);
  EXPECT_EQ(merged.analysis.frames, whole.frames);
  EXPECT_EQ(report_bytes(merged.analysis), reference);
}

TEST_F(RollupDifferential, FifoShardMatchesRegularFile) {
  // A capture that can be read only once (a FIFO, `/dev/stdin`) must
  // reach the analysis whole: planning may not read it first.
  const auto reference = run({whole_}, true, 1);
  const testing::FifoFeed fifo(dir_ / "whole.fifo", whole_);
  const auto piped = run({fifo.path()}, true, 1);
  EXPECT_EQ(piped.analysis.frames, reference.analysis.frames);
  EXPECT_EQ(report_bytes(piped.analysis), report_bytes(reference.analysis));
}

}  // namespace
}  // namespace synscan
