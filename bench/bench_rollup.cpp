// Rollup perf workload: sharded multi-capture analysis through the
// `.spr` rollup store, reported as JSON. CI's perf-smoke job runs it as
// a gross-regression gate; speed claims come from perfbench/
// (docs/PERFORMANCE.md "Measuring").
//
// One run measures four execution modes over the same generated shard
// set — a single probe stream split into S capture files, with sources
// deliberately long-lived so flows span shard boundaries:
//   cold        — run_shards with the rollup store off: every shard
//                 re-analyzed through the batch pipeline, then merged.
//                 This is what plain `analyze` over the set costs.
//   build       — first store-enabled run: analyze everything AND
//                 persist one `.spr` per shard (the write overhead).
//   warm        — store-enabled run with every shard valid: nothing is
//                 re-analyzed, the rollups are loaded and merged.
//   incremental — one shard's `.spr` removed before each run: that
//                 shard re-analyzes, the rest load, everything merges.
// The warm merge must produce byte-identical report JSON (counters +
// campaign JSONL) to the cold analysis; the binary exits non-zero if
// they diverge, so the run doubles as a correctness smoke.
//
// `--check-ratio=<min>` gates cold/warm: the warm merge must be at
// least `min` times faster than cold re-analysis. CI passes a floor of
// 3; docs/PERFORMANCE.md records the spread the CI command measures.
//
// Usage: bench_rollup [--frames=N] [--shards=N] [--workers=N]
//                     [--label=STR] [--seed=N] [--iters=N]
//                     [--warmup=N] [--check-ratio=MIN]
// Output: one JSON object on stdout.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/rollup_store.h"
#include "core/shard.h"
#include "pcap/pcap.h"
#include "report/json.h"
#include "simgen/rng.h"

namespace {

using namespace synscan;
using bench::bench_telescope;

namespace fs = std::filesystem;

struct Options {
  std::uint64_t frames = 2'000'000;
  std::uint64_t shards = 8;
  std::uint64_t workers = 0;
  std::uint64_t seed = 20240809;
  std::string label = "rollup";
  int iterations = 5;
  int warmup = 1;
  /// Minimum cold/warm speedup; < 0 disables the gate.
  double check_ratio = -1.0;
};

Options parse(int argc, char** argv) {
  Options options;
  bench::parse_flags(argc, argv,
                     {{"frames", &options.frames},
                      {"shards", &options.shards},
                      {"workers", &options.workers},
                      {"seed", &options.seed},
                      {"label", &options.label},
                      {"iters", &options.iterations},
                      {"warmup", &options.warmup},
                      {"check-ratio", &options.check_ratio}});
  if (options.shards == 0) options.shards = 1;
  return options;
}

/// Writes one probe stream as `shards` consecutive capture files. The
/// source space is small (1024 addresses) so flows recur across the
/// whole window and straddle every shard boundary — the case the
/// boundary-carry merge exists for — and each source accumulates the
/// campaign-scale probe volume the paper's heavy scanners show.
std::vector<fs::path> write_shards(const fs::path& dir, const Options& options) {
  simgen::Rng rng(options.seed);
  std::vector<fs::path> captures;
  const std::uint64_t per_shard = std::max<std::uint64_t>(
      options.frames / options.shards, 1);
  net::TimeUs now = 0;
  for (std::uint64_t shard = 0; shard < options.shards; ++shard) {
    auto path = dir / ("shard" + std::to_string(shard) + ".pcap");
    auto writer = pcap::Writer::create(path);
    net::RawFrame frame;
    for (std::uint64_t i = 0; i < per_shard; ++i) {
      now += 40;
      const std::uint64_t draw = rng.next_u64() % 100;
      net::TcpFrameSpec tcp;
      tcp.src_ip = net::Ipv4Address(0x05000000u + rng.next_u32() % 1024);
      tcp.dst_ip = net::Ipv4Address(0xc6330000u + rng.next_u32() % 65536);
      tcp.src_port = static_cast<std::uint16_t>(40000 + rng.next_u32() % 20000);
      tcp.dst_port = (draw % 3 == 0) ? 443 : 80;
      tcp.sequence = rng.next_u32();
      tcp.ip_id = static_cast<std::uint16_t>(rng.next_u32());
      if (draw >= 90) {
        tcp.flags =
            net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck);
      }
      frame.timestamp_us = now;
      frame.bytes = net::build_tcp_frame(tcp);
      writer.write(frame);
    }
    writer.flush();
    captures.push_back(std::move(path));
  }
  return captures;
}

struct RunResult {
  double seconds = 0.0;
  core::ShardRunStats stats;
  std::string report;
};

/// The report bytes the offline `rollup query` emits: pipeline counters
/// followed by the campaign JSONL — the equality surface of the whole
/// subsystem.
std::string report_bytes(const core::AnalyzedCapture& analysis) {
  std::string out;
  report::append_counters_json(out, analysis.result);
  out.push_back('\n');
  report::append_campaigns_jsonl(out, analysis.result.campaigns);
  return out;
}

RunResult run_once(const core::ShardPlan& plan, const Options& options,
                   bool use_store) {
  RunResult result;
  core::ShardRunOptions run_options;
  run_options.workers = options.workers;
  run_options.use_rollup_store = use_store;
  const auto start = std::chrono::steady_clock::now();
  auto run = core::run_shards(plan, bench_telescope(),
                              enrich::InternetRegistry::synthetic_default(),
                              core::TrackerConfig{}, run_options);
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.stats = run.stats;
  result.report = report_bytes(run.analysis);
  return result;
}

void expect(bool condition, const char* what) {
  if (condition) return;
  std::fprintf(stderr, "bench_rollup: %s\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);

  const bench::ScratchDir dir("bench_rollup");
  const auto captures = write_shards(dir.path(), options);
  std::uint64_t capture_bytes = 0;
  for (const auto& capture : captures) capture_bytes += fs::file_size(capture);
  const auto plan = core::plan_shards(captures);

  const auto seconds_of = [](const RunResult& r) { return r.seconds; };
  const auto median = [&](auto&& run) {
    return synscan::bench::median_result(run, seconds_of, options.iterations,
                                         options.warmup);
  };
  const auto drop_rollups = [&] {
    for (const auto& capture : captures) {
      fs::remove(core::rollup_path_for(capture));
    }
  };

  // Cold: store off; the warmup iteration also writes the .spc probe
  // caches, so "cold" means cold analysis over warm ingest — exactly
  // what repeating `analyze` over the set costs.
  const auto cold = median([&] { return run_once(plan, options, false); });

  // Build: one pass that analyzes everything and persists the rollups.
  drop_rollups();
  const auto build = run_once(plan, options, true);
  expect(build.stats.store_misses == options.shards, "build pass expected all misses");
  expect(build.stats.store_writes == options.shards, "build pass expected all writes");

  // Warm: every shard served from its .spr.
  const auto warm = median([&] {
    auto run = run_once(plan, options, true);
    expect(run.stats.store_hits == options.shards, "warm pass expected all hits");
    return run;
  });

  // Incremental: one shard invalidated per run, the rest load.
  const auto incremental = median([&] {
    fs::remove(core::rollup_path_for(plan.shards.front().capture));
    auto run = run_once(plan, options, true);
    expect(run.stats.store_hits == options.shards - 1,
           "incremental pass expected shards-1 hits");
    expect(run.stats.store_misses == 1, "incremental pass expected one miss");
    return run;
  });

  expect(warm.report == cold.report, "warm merge diverged from cold analysis");
  expect(incremental.report == cold.report,
         "incremental merge diverged from cold analysis");

  const double warm_speedup = cold.seconds / warm.seconds;
  const double incremental_speedup = cold.seconds / incremental.seconds;
  std::printf(
      "{\"label\":\"%s\",\"frames\":%" PRIu64 ",\"shards\":%" PRIu64 ","
      "\"capture_bytes\":%" PRIu64 ",\"peak_rss_kb\":%ld,"
      "\"iterations\":%d,\"warmup\":%d,"
      "\"cold_seconds\":%.4f,\"build_seconds\":%.4f,"
      "\"warm_seconds\":%.4f,\"incremental_seconds\":%.4f,"
      "\"warm_speedup\":%.2f,\"incremental_speedup\":%.2f,"
      "\"build_overhead\":%.3f}\n",
      options.label.c_str(), options.frames, options.shards, capture_bytes,
      bench::peak_rss_kb(), options.iterations, options.warmup, cold.seconds,
      build.seconds, warm.seconds, incremental.seconds, warm_speedup,
      incremental_speedup, build.seconds / cold.seconds);
  if (options.check_ratio >= 0.0 && warm_speedup < options.check_ratio) {
    std::fprintf(stderr,
                 "bench_rollup: warm merge %.4fs is only %.2fx faster than "
                 "cold analysis %.4fs, below the --check-ratio=%.2f floor\n",
                 warm.seconds, warm_speedup, cold.seconds, options.check_ratio);
    return 1;
  }
  return 0;
}
