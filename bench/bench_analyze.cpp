// Analyze perf workload: warm probe cache -> campaigns + the port tally
// and its views, reported as JSON. CI's perf-smoke job runs it as a
// gross-regression gate; speed claims come from perfbench/
// (docs/PERFORMANCE.md "Measuring").
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
//                 `get(i)` into `Pipeline::feed_probe`, a `PortTally`
//                 on `on_probe` — the differential reference path;
//   batched     — the batch-native serial path: `Pipeline::feed_probes`,
//                 the tally folded from the tracker's flows;
//   parallel    — the same path at `--workers`: `feed_probes` slicing
//                 shared batches across worker trackers, as in the CLI.
// All paths must agree on campaign count, tracker counters, tally and
// view totals, and the `analyze --json` bytes — counters line plus
// campaign JSONL — byte for byte (reference vs batched vs parallel);
// the binary exits non-zero on divergence, so the run doubles as a
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
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "core/analysis_geo.h"
#include "core/analysis_types.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/port_tally.h"
#include "enrich/registry.h"
#include "report/json.h"
#include "telescope/probe_batch.h"

namespace {

using namespace synscan;
using bench::bench_telescope;

namespace fs = std::filesystem;

struct Options {
  std::uint64_t frames = 2'000'000;
  std::uint64_t seed = 20250809;
  std::string label = "analyze";
  std::uint64_t workers = 4;
  double check_ratio = 0.0;  ///< 0 = no gate
};

Options parse(int argc, char** argv) {
  Options options;
  bench::parse_flags(argc, argv,
                     {{"frames", &options.frames},
                      {"seed", &options.seed},
                      {"label", &options.label},
                      {"workers", &options.workers},
                      {"check-ratio", &options.check_ratio}});
  return options;
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

/// Pure ingest, probes counted and dropped. From the warm cache it is
/// the throughput floor; with the cache off (mmap + FrameBatcher) it is
/// what "ingesting the capture" costs when no .spc exists — the ~2x
/// budget in docs/PERFORMANCE.md compares analyze against this.
PathResult run_ingest(const fs::path& path, bool use_cache) {
  PathResult result;
  core::IngestOptions options;
  options.use_cache = use_cache;
  const auto start = std::chrono::steady_clock::now();
  const auto ingest = core::ingest_capture(path, bench_telescope(), options,
                                           [&](const telescope::ProbeBatch& batch) {
                                             result.probes += batch.size();
                                           });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (use_cache && !ingest.from_cache) {
    std::fprintf(stderr, "bench_analyze: expected a warm cache\n");
    std::exit(1);
  }
  return result;
}

void fill_result(PathResult& result, const core::PipelineResult& pipeline_result,
                 const core::PortTally& ports) {
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  result.campaigns = pipeline_result.campaigns.size();
  result.tracker_probes = pipeline_result.tracker.probes;
  result.port_packets = ports.total_packets();
  result.type_sources = core::TypeView(ports, registry).total_sources();
  result.geo_packets = core::GeoView(ports, registry).total_packets();
  report::append_counters_json(result.report, pipeline_result);
  result.report.push_back('\n');
  report::append_campaigns_jsonl(result.report, pipeline_result.campaigns);
}

/// Per-probe reference: every row materialized, the tally on `on_probe`.
PathResult run_reference(const fs::path& path) {
  PathResult result;
  core::Pipeline pipeline(bench_telescope());
  core::PortTally ports;
  pipeline.add_observer(ports);
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
  const auto pipeline_result = pipeline.finish();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  fill_result(result, pipeline_result, ports);
  return result;
}

/// Batch-native path: `feed_probes`, serial at one worker; at more,
/// tracking is sharded across workers (the CLI `analyze --workers=N`
/// shape). The tally is composed from the trackers' flows, untimed.
PathResult run_batched(const fs::path& path, std::size_t workers) {
  PathResult result;
  core::Pipeline pipeline(bench_telescope(), workers);
  const auto start = std::chrono::steady_clock::now();
  const auto ingest = core::ingest_capture(path, bench_telescope(), warm_options(),
                                           [&](const telescope::ProbeBatch& batch) {
                                             result.probes += batch.size();
                                             pipeline.feed_probes(batch);
                                           });
  pipeline.absorb_sensor_counters(ingest.sensor);
  const auto pipeline_result = pipeline.finish();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  fill_result(result, pipeline_result, pipeline_result.port_tally());
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

  const bench::ScratchDir dir("bench_analyze");
  const auto capture = dir.path() / "workload.pcap";
  bench::write_burst_capture(capture, options.frames, options.seed);

  // Cold pass writes the .spc; everything measured below runs warm.
  (void)core::ingest_capture(capture, bench_telescope(), warm_options(),
                             [](const telescope::ProbeBatch&) {});

  const auto cold = run_ingest(capture, false);
  const auto warm = run_ingest(capture, true);
  const auto reference = run_reference(capture);
  const auto batched = run_batched(capture, 1);
  const auto parallel = run_batched(capture, options.workers);

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
      "\"campaigns\":%" PRIu64 ",\"workers\":%" PRIu64 ",\"peak_rss_kb\":%ld,"
      "\"cold_ingest_seconds\":%.4f,\"cold_ingest_probes_per_sec\":%.0f,"
      "\"warm_ingest_seconds\":%.4f,\"warm_ingest_probes_per_sec\":%.0f,"
      "\"reference_seconds\":%.4f,\"reference_probes_per_sec\":%.0f,"
      "\"batched_seconds\":%.4f,\"batched_probes_per_sec\":%.0f,"
      "\"parallel_seconds\":%.4f,\"parallel_probes_per_sec\":%.0f,"
      "\"batched_vs_reference\":%.2f,\"analyze_vs_cold_ingest\":%.2f,"
      "\"analyze_vs_warm_ingest\":%.2f}\n",
      options.label.c_str(), options.frames, warm.probes, batched.campaigns,
      options.workers, bench::peak_rss_kb(), cold.seconds, pps(cold), warm.seconds,
      pps(warm), reference.seconds, pps(reference), batched.seconds, pps(batched),
      parallel.seconds, pps(parallel), batched_vs_reference,
      batched.seconds / cold.seconds, batched.seconds / warm.seconds);
  return 0;
}
