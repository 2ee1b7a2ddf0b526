// Differential test for the decade-scale rollup layer: splitting a
// capture into shards, analyzing each shard independently and merging
// the rollups (core/rollup.h, core/shard.h) must produce a report that
// is byte-for-byte identical to analyzing the whole capture in one
// pass (`testing::single_pass_analysis`: one tracker, no carry mode, no
// merger) — for any shard count including the lone shard `analyze`
// runs, at any split boundary (including mid-campaign), at any worker
// count, and whether the shards were re-analyzed or served from the
// persistent `.spr` store.
#include "core/shard.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis_session.h"
#include "core/reference_tallies.h"
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
    whole_ = dir_ / "whole.pcap";

    auto writer = pcap::Writer::create(whole_);
    simgen::TrafficGenerator generator(capture_config(), test_telescope(),
                                       enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& f) { writer.write(f); });
    writer.flush();
  }

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

  const testing::ScratchDir scratch_;
  const fs::path dir_ = scratch_.path();
  fs::path whole_;
};

TEST_F(RollupDifferential, MergedShardsMatchWholeCaptureByteForByte) {
  core::IngestOptions ingest;
  ingest.use_cache = false;
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  const auto whole = testing::single_pass_analysis(whole_, test_telescope(), registry, ingest);
  ASSERT_GT(whole.result.sensor.scan_probes, 0u);
  ASSERT_GT(whole.result.campaigns.size(), 1u);
  const auto reference = report_bytes(whole);
  const auto whole_tally = whole.result.port_tally();
  const auto expect_whole = [&](const core::ShardRunResult& merged, std::size_t count) {
    EXPECT_EQ(merged.stats.shards, count);
    EXPECT_EQ(report_bytes(merged.analysis), reference)
        << count << " shards diverged from the single pass";
    // The merged tally agrees too, source by source (the report surface
    // only covers counters + campaigns; the tally feeds the analytics
    // commands).
    EXPECT_EQ(merged.analysis.frames, whole.frames) << count << " shards";
    const auto tally = merged.analysis.result.port_tally();
    testing::expect_same_port_tally(tally, whole_tally);
    EXPECT_EQ(core::TypeView(tally, registry).total_sources(),
              core::TypeView(whole_tally, registry).total_sources());
    EXPECT_EQ(core::GeoView(tally, registry).total_packets(),
              core::GeoView(whole_tally, registry).total_packets());
  };

  // One shard is the plan `analyze_capture` runs: the workers track
  // inside it (carry-mode trackers on worker threads), with the store
  // off, building and hitting, and its `.spr` is the same at any count.
  const std::vector<fs::path> lone{whole_};
  const auto store = core::rollup_path_for(whole_);
  std::vector<char> first_spr;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE("1 shard, workers=" + std::to_string(workers));
    EXPECT_EQ(report_bytes(core::analyze_capture(whole_, test_telescope(), registry, workers,
                                                 ingest)),
              reference);
    const auto off = run(lone, false, workers);
    EXPECT_EQ(off.stats.store_writes, 0u);
    expect_whole(off, 1);
    fs::remove(store);
    const auto built = run(lone, true, workers);
    EXPECT_EQ(built.stats.store_misses, 1u);
    EXPECT_EQ(built.stats.store_writes, 1u);
    expect_whole(built, 1);
    const auto hit = run(lone, true, workers);
    EXPECT_EQ(hit.stats.store_hits, 1u);
    expect_whole(hit, 1);
    const auto spr = testing::slurp(store);
    if (first_spr.empty()) first_spr = spr;
    EXPECT_TRUE(spr == first_spr) << "the .spr depends on the tracker count";
  }

  for (const std::size_t count : {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    expect_whole(run(split_capture(count), false, 2), count);
  }
}

TEST_F(RollupDifferential, IncrementalStorePathStaysByteIdentical) {
  core::IngestOptions ingest;
  ingest.use_cache = false;
  const auto whole = testing::single_pass_analysis(
      whole_, test_telescope(), enrich::InternetRegistry::synthetic_default(), ingest);
  const auto reference = report_bytes(whole);

  const auto shards = split_capture(3);

  // The scanner-type and country views of a merge must answer as
  // per-probe tallies of the whole capture do.
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  testing::ReferenceTypeTally whole_types(registry);
  testing::ReferenceGeoTally whole_geo(registry);
  (void)core::ingest_capture(whole_, test_telescope(), ingest,
                             [&](const telescope::ProbeBatch& batch) {
                               for (std::size_t i = 0; i < batch.size(); ++i) {
                                 whole_types.on_probe(batch.get(i));
                                 whole_geo.on_probe(batch.get(i));
                               }
                             });
  const auto whole_tally = whole.result.port_tally();
  const auto expect_reference_views = [&](const core::AnalyzedCapture& analysis) {
    const auto tally = analysis.result.port_tally();
    testing::expect_same_port_tally(tally, whole_tally);
    testing::expect_type_view_matches(core::TypeView(tally, registry), whole_types);
    testing::expect_geo_view_matches(core::GeoView(tally, registry), whole_geo, registry);
  };

  // Build pass: every shard analyzed and persisted.
  const auto built = run(shards, true, 2);
  EXPECT_EQ(built.stats.store_misses, 3u);
  EXPECT_EQ(built.stats.store_writes, 3u);
  EXPECT_EQ(report_bytes(built.analysis), reference);
  {
    SCOPED_TRACE("3-shard merge");
    expect_reference_views(built.analysis);
  }

  // Warm pass: everything served from the store.
  const auto warm = run(shards, true, 2);
  EXPECT_EQ(warm.stats.store_hits, 3u);
  EXPECT_EQ(warm.stats.store_misses, 0u);
  EXPECT_EQ(report_bytes(warm.analysis), reference);
  {
    SCOPED_TRACE("3 shards loaded from .spr");
    expect_reference_views(warm.analysis);
  }
  // That merge joined flows from persisted state alone: a source leaves
  // a tail in one stored shard and a head in the next, and the campaign
  // across the cut carries the ZMap verdict of the one-pass analysis.
  const auto analysis_key =
      core::analysis_fingerprint(core::TrackerConfig{}, test_telescope().monitored_count());
  const auto load = [&](const fs::path& shard) {
    return core::load_rollup(core::rollup_path_for(shard), registry,
                             *core::cache_identity(shard), analysis_key);
  };
  std::size_t joined_zmap = 0;
  for (std::size_t k = 0; k + 1 < shards.size(); ++k) {
    const auto earlier = load(shards[k]);
    const auto later = load(shards[k + 1]);
    ASSERT_TRUE(earlier.has_value() && later.has_value()) << "shard " << k;
    for (const auto& tail : earlier->segments) {
      for (const auto& head : later->segments) {
        if (!tail.tail || !head.head || head.source != tail.source) continue;
        for (const auto& campaign : whole.result.campaigns) {
          if (campaign.source == tail.source && campaign.first_seen_us <= tail.last_seen_us &&
              campaign.last_seen_us >= head.first_seen_us &&
              campaign.tool == fingerprint::Tool::kZmap) {
            ++joined_zmap;
          }
        }
      }
    }
  }
  EXPECT_GT(joined_zmap, 0u);

  // Incremental pass: one rollup dropped — only that shard re-analyzes,
  // and the mixed loaded/recomputed merge still matches exactly.
  fs::remove(core::rollup_path_for(shards[1]));
  const auto incremental = run(shards, true, 2);
  EXPECT_EQ(incremental.stats.store_hits, 2u);
  EXPECT_EQ(incremental.stats.store_misses, 1u);
  EXPECT_EQ(incremental.stats.store_writes, 1u);
  EXPECT_EQ(report_bytes(incremental.analysis), reference);
  {
    SCOPED_TRACE("2 shards loaded, 1 re-analyzed");
    expect_reference_views(incremental.analysis);
  }
}

TEST_F(RollupDifferential, PcapngShardsPlanByCaptureTime) {
  // The same day as three time-ordered pcapng shards whose names run
  // against capture time: the plan must order them by first record, not
  // by path, for the merge to match the whole capture.
  core::IngestOptions ingest;
  ingest.use_cache = false;
  const auto whole = testing::single_pass_analysis(
      whole_, test_telescope(), enrich::InternetRegistry::synthetic_default(), ingest);
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
  testing::expect_same_port_tally(merged.analysis.result.port_tally(),
                                  whole.result.port_tally());
}

TEST_F(RollupDifferential, FifoShardMatchesRegularFile) {
  // A capture that can be read only once (a FIFO, `/dev/stdin`) must
  // reach the analysis whole: planning may not read it first.
  const auto reference = run({whole_}, true, 1);
  const testing::FifoFeed fifo(dir_ / "whole.fifo", whole_);
  const auto piped = run({fifo.path()}, true, 1);
  EXPECT_EQ(piped.analysis.frames, reference.analysis.frames);
  EXPECT_EQ(report_bytes(piped.analysis), report_bytes(reference.analysis));
  testing::expect_same_port_tally(piped.analysis.result.port_tally(),
                                  reference.analysis.result.port_tally());
}

}  // namespace
}  // namespace synscan
