// Analyze perf workload: warm probe cache -> campaigns + observer
// tallies, reported as JSON (see scripts/bench_baseline.sh and
// BENCH_analyze.json).
//
// One run measures five paths over the same generated capture; the
// analyze paths are all fed from the warm `.spc` probe cache so ingest
// cost is identical and the analytics stages are what differs:
//   cold_ingest — pure decode+classify ingest (mmap + FrameBatcher,
//                 no cache): what reading the capture costs — the
//                 "analyze within ~2x of ingest" budget compares
//                 against this;
//   warm_ingest — pure ingest from the cache, probes counted and
//                 dropped: the absolute throughput floor;
//   reference   — per-probe analytics: every batch row materialized via
//                 `get(i)` into `Pipeline::feed_probe`, observers fed
//                 through `on_probe` — the differential reference path;
//   batched     — the batch-native serial path: `Pipeline::feed_probes`,
//                 observers on their column-direct `observe_batch`
//                 overloads;
//   parallel    — `Pipeline(telescope, workers)::feed_probes` slicing
//                 shared batches across worker trackers, observers on
//                 the feeder as in the CLI.
// All paths must agree on campaign count, tracker counters, observer
// totals, and the `analyze --json` bytes — counters line plus campaign
// JSONL — byte for byte (reference vs batched vs parallel); the binary
// exits non-zero on divergence, so the baseline doubles as a
// correctness smoke.
//
// Usage: bench_analyze [--frames=N] [--label=STR] [--seed=N]
//                      [--workers=N] [--check-ratio=R]
// `--check-ratio=R` additionally fails the run (exit 1) when the batched
// path's probe throughput falls below R times the reference path's — a
// machine-independent regression gate for CI (the two paths run in the
// same process on the same capture, so the ratio is stable where
// absolute throughput is not).
// Output: one JSON object on stdout.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis_geo.h"
#include "core/analysis_types.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/port_tally.h"
#include "enrich/registry.h"
#include "pcap/pcap.h"
#include "report/json.h"
#include "simgen/rng.h"
#include "telescope/probe_batch.h"
#include "telescope/telescope.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace {

using namespace synscan;

namespace fs = std::filesystem;

/// Peak resident set size in kilobytes, or 0 where unsupported.
long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // bytes on macOS
#else
  return usage.ru_maxrss;  // kilobytes on Linux
#endif
#else
  return 0;
#endif
}

struct Options {
  std::uint64_t frames = 2'000'000;
  std::uint64_t seed = 20250809;
  std::string label = "analyze";
  std::size_t workers = 4;
  double check_ratio = 0.0;  ///< 0 = no gate
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--frames=", 0) == 0) {
      options.frames = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--label=", 0) == 0) {
      options.label = arg.substr(8);
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.workers = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--check-ratio=", 0) == 0) {
      options.check_ratio = std::strtod(arg.c_str() + 14, nullptr);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

const telescope::Telescope& bench_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}},
      {{23, 0}});
  return telescope;
}

/// Writes a campaign-shaped capture: a modest source pool emitting
/// *bursts* of SYN probes (scan traffic arrives in per-source runs —
/// the access pattern the batched observers' memoization targets), with
/// enough backscatter and off-telescope noise that the sensor branches
/// stay on the measured ingest path.
void write_capture(const fs::path& path, const Options& options) {
  simgen::Rng rng(options.seed);
  auto writer = pcap::Writer::create(path);
  net::RawFrame frame;
  net::TimeUs now = 0;
  constexpr std::uint32_t kSources = 4096;
  std::uint32_t burst_source = 0;
  std::uint16_t burst_port = 80;
  std::uint32_t burst_left = 0;
  for (std::uint64_t i = 0; i < options.frames; ++i) {
    now += 40;
    const std::uint64_t draw = rng.next_u64() % 100;
    net::TcpFrameSpec tcp;
    if (burst_left == 0) {
      // New scan burst: sources come from a few distinct /8-ish pools so
      // the registry and geo lookups exercise different prefixes.
      burst_source = 0x05000000u + (rng.next_u32() % kSources) * 977u;
      burst_port = (rng.next_u64() % 4 == 0) ? 443 : 80;
      burst_left = 16 + rng.next_u32() % 48;
    }
    --burst_left;
    tcp.src_ip = net::Ipv4Address(burst_source);
    tcp.dst_ip = net::Ipv4Address(0xc6330000u + rng.next_u32() % 65536);
    tcp.src_port = static_cast<std::uint16_t>(40000 + rng.next_u32() % 20000);
    tcp.dst_port = burst_port;
    tcp.sequence = rng.next_u32();
    tcp.ip_id = static_cast<std::uint16_t>(rng.next_u32());
    if (draw < 88) {
      // scan probe (defaults: SYN)
    } else if (draw < 94) {
      tcp.flags = net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck);
    } else {
      tcp.dst_ip = net::Ipv4Address(0x08080000u + rng.next_u32() % 65536);  // off-net
    }
    frame.timestamp_us = now;
    frame.bytes = net::build_tcp_frame(tcp);
    writer.write(frame);
  }
  writer.flush();
}

/// Everything one analyze pass produces that the others must agree on.
struct PathResult {
  double seconds = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t campaigns = 0;
  std::uint64_t tracker_probes = 0;
  std::uint64_t port_packets = 0;
  std::uint64_t type_sources = 0;
  std::uint64_t geo_packets = 0;
  std::string report;  ///< counters line + campaign JSONL, as `analyze --json`
};

core::IngestOptions warm_options() {
  core::IngestOptions options;
  options.use_cache = true;
  return options;
}

/// Pure ingest from the warm cache: the throughput floor.
PathResult run_warm_ingest(const fs::path& path) {
  PathResult result;
  const auto start = std::chrono::steady_clock::now();
  const auto ingest = core::ingest_capture(path, bench_telescope(), warm_options(),
                                           [&](const telescope::ProbeBatch& batch) {
                                             result.probes += batch.size();
                                           });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!ingest.from_cache) {
    std::fprintf(stderr, "bench_analyze: expected a warm cache\n");
    std::exit(1);
  }
  return result;
}

/// Pure decode+classify ingest (mmap + FrameBatcher, cache off): what
/// "ingesting the capture" costs when no .spc exists — the ~2x budget
/// in docs/PERFORMANCE.md compares analyze against this.
PathResult run_cold_ingest(const fs::path& path) {
  PathResult result;
  core::IngestOptions options;
  options.use_cache = false;
  const auto start = std::chrono::steady_clock::now();
  (void)core::ingest_capture(path, bench_telescope(), options,
                             [&](const telescope::ProbeBatch& batch) {
                               result.probes += batch.size();
                             });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

void fill_result(PathResult& result, core::PipelineResult pipeline_result,
                 const core::PortTally& ports, const core::TypeTally& types,
                 const core::GeoTally& geo) {
  result.campaigns = pipeline_result.campaigns.size();
  result.tracker_probes = pipeline_result.tracker.probes;
  result.port_packets = ports.total_packets();
  result.type_sources = types.total_sources();
  result.geo_packets = geo.total_packets();
  report::append_counters_json(result.report, pipeline_result);
  result.report.push_back('\n');
  report::append_campaigns_jsonl(result.report, pipeline_result.campaigns);
}

/// Per-probe reference: every row materialized, observers on `on_probe`.
PathResult run_reference(const fs::path& path) {
  PathResult result;
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  core::Pipeline pipeline(bench_telescope());
  core::PortTally ports;
  core::TypeTally types(registry);
  core::GeoTally geo(registry);
  pipeline.add_observer(ports);
  pipeline.add_observer(types);
  pipeline.add_observer(geo);
  const auto start = std::chrono::steady_clock::now();
  const auto ingest = core::ingest_capture(path, bench_telescope(), warm_options(),
                                           [&](const telescope::ProbeBatch& batch) {
                                             result.probes += batch.size();
                                             for (std::size_t i = 0; i < batch.size();
                                                  ++i) {
                                               pipeline.feed_probe(batch.get(i));
                                             }
                                           });
  pipeline.absorb_sensor_counters(ingest.sensor);
  auto pipeline_result = pipeline.finish();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  fill_result(result, std::move(pipeline_result), ports, types, geo);
  return result;
}

/// Batch-native serial path: `feed_probes` + `observe_batch`.
PathResult run_batched(const fs::path& path) {
  PathResult result;
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  core::Pipeline pipeline(bench_telescope());
  core::PortTally ports;
  core::TypeTally types(registry);
  core::GeoTally geo(registry);
  pipeline.add_observer(ports);
  pipeline.add_observer(types);
  pipeline.add_observer(geo);
  const auto start = std::chrono::steady_clock::now();
  const auto ingest = core::ingest_capture(path, bench_telescope(), warm_options(),
                                           [&](const telescope::ProbeBatch& batch) {
                                             result.probes += batch.size();
                                             pipeline.feed_probes(batch);
                                           });
  pipeline.absorb_sensor_counters(ingest.sensor);
  auto pipeline_result = pipeline.finish();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  fill_result(result, std::move(pipeline_result), ports, types, geo);
  return result;
}

/// Tracking sharded across workers, observers on the feeder (the CLI
/// `analyze --workers=N` shape).
PathResult run_parallel(const fs::path& path, std::size_t workers) {
  PathResult result;
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  core::Pipeline pipeline(bench_telescope(), workers);
  core::PortTally ports;
  core::TypeTally types(registry);
  core::GeoTally geo(registry);
  pipeline.add_observer(ports);
  pipeline.add_observer(types);
  pipeline.add_observer(geo);
  const auto start = std::chrono::steady_clock::now();
  const auto ingest = core::ingest_capture(path, bench_telescope(), warm_options(),
                                           [&](const telescope::ProbeBatch& batch) {
                                             result.probes += batch.size();
                                             pipeline.feed_probes(batch);
                                           });
  pipeline.absorb_sensor_counters(ingest.sensor);
  auto pipeline_result = pipeline.finish();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  fill_result(result, std::move(pipeline_result), ports, types, geo);
  return result;
}

bool same_counters(const PathResult& a, const PathResult& b) {
  return a.probes == b.probes && a.campaigns == b.campaigns &&
         a.tracker_probes == b.tracker_probes && a.port_packets == b.port_packets &&
         a.type_sources == b.type_sources && a.geo_packets == b.geo_packets;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);

  const auto dir = fs::temp_directory_path() / "synscan_bench_analyze";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto capture = dir / "workload.pcap";
  write_capture(capture, options);

  // Cold pass writes the .spc; everything measured below runs warm.
  (void)core::ingest_capture(capture, bench_telescope(), warm_options(),
                             [](const telescope::ProbeBatch&) {});

  const auto cold = run_cold_ingest(capture);
  const auto warm = run_warm_ingest(capture);
  const auto reference = run_reference(capture);
  const auto batched = run_batched(capture);
  const auto parallel = run_parallel(capture, options.workers);
  fs::remove_all(dir);

  if (!same_counters(reference, batched) || !same_counters(reference, parallel) ||
      warm.probes != reference.probes || cold.probes != warm.probes ||
      reference.report != batched.report || reference.report != parallel.report) {
    std::fprintf(stderr,
                 "bench_analyze: path divergence (probes %" PRIu64 "/%" PRIu64
                 "/%" PRIu64 "/%" PRIu64 ", campaigns %" PRIu64 "/%" PRIu64
                 "/%" PRIu64 ", report %s/%s)\n",
                 warm.probes, reference.probes, batched.probes, parallel.probes,
                 reference.campaigns, batched.campaigns, parallel.campaigns,
                 reference.report == batched.report ? "ok" : "DIFF",
                 reference.report == parallel.report ? "ok" : "DIFF");
    return 1;
  }

  const auto pps = [](const PathResult& r) {
    return static_cast<double>(r.probes) / r.seconds;
  };
  const double batched_vs_reference = pps(batched) / pps(reference);
  if (options.check_ratio > 0.0 && batched_vs_reference < options.check_ratio) {
    std::fprintf(stderr,
                 "bench_analyze: batched path at %.2fx of the per-probe reference "
                 "(gate: %.2fx) — the batch-native path regressed\n",
                 batched_vs_reference, options.check_ratio);
    return 1;
  }

  std::printf(
      "{\"label\":\"%s\",\"frames\":%" PRIu64 ",\"probes\":%" PRIu64 ","
      "\"campaigns\":%" PRIu64 ",\"workers\":%zu,\"peak_rss_kb\":%ld,"
      "\"cold_ingest_seconds\":%.4f,\"cold_ingest_probes_per_sec\":%.0f,"
      "\"warm_ingest_seconds\":%.4f,\"warm_ingest_probes_per_sec\":%.0f,"
      "\"reference_seconds\":%.4f,\"reference_probes_per_sec\":%.0f,"
      "\"batched_seconds\":%.4f,\"batched_probes_per_sec\":%.0f,"
      "\"parallel_seconds\":%.4f,\"parallel_probes_per_sec\":%.0f,"
      "\"batched_vs_reference\":%.2f,\"analyze_vs_cold_ingest\":%.2f,"
      "\"analyze_vs_warm_ingest\":%.2f}\n",
      options.label.c_str(), options.frames, warm.probes, batched.campaigns,
      options.workers, peak_rss_kb(), cold.seconds, pps(cold), warm.seconds,
      pps(warm), reference.seconds, pps(reference), batched.seconds, pps(batched),
      parallel.seconds, pps(parallel), batched_vs_reference,
      batched.seconds / cold.seconds, batched.seconds / warm.seconds);
  return 0;
}
