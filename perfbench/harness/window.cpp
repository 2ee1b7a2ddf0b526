// window2024: the tracker and the observers do most of the work; ingest
// is a small share warm and a larger one cold. The rollup operations
// treat the window as a one-shard store, the way `synscan rollup query`
// serves a single capture. No server code runs.
#include <map>

#include "core/rollup_store.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = synscan::core;

/// Queries per timed batch of the one-shard store: one query takes about
/// 0.3 s, and no metric comes from a phase much shorter than a second.
constexpr int kQueryBatch = 4;

struct WindowRun {
  Outcome& out;
  fs::path capture;
  std::map<std::size_t, std::string> first_report;  ///< per worker count

  /// One `analyze --json` of the capture; returns wall seconds.
  double analyze(std::size_t workers, bool expect_cache, Samples* cpu) {
    const double cpu_start = cpu_seconds();
    const auto start = Clock::now();
    const auto analysis = core::analyze_capture(capture, bench_telescope(), bench_registry(),
                                                workers, core::IngestOptions{});
    const auto report = emit_report(analysis.result);
    const double wall = seconds_since(start);
    if (cpu != nullptr) cpu->add(cpu_seconds() - cpu_start);

    const auto [first, inserted] = first_report.emplace(workers, report);
    const std::string label = "window2024 analyze workers=" + std::to_string(workers) +
                              (expect_cache ? " warm" : " cold");
    out.checks.record(first->second == report &&
                          analysis.from_cache == expect_cache &&
                          analysis.final_status == synscan::pcap::ReadStatus::kEndOfFile,
                      label);
    out.counts.note("ingest.frames", analysis.frames, out.checks);
    out.counts.note("ingest.probes", analysis.result.sensor.scan_probes, out.checks);
    out.counts.note("tracker.campaigns", analysis.result.campaigns.size(), out.checks);
    out.counts.note(workers == 1 ? "report.bytes.serial" : "report.bytes.default",
                    report.size(), out.checks);
    return wall;
  }
};

}  // namespace

Outcome run_window(const RunOptions& options, MemProbe& probe) {
  Outcome out;
  WindowRun run{out, window_capture(options.dir), {}};
  const auto workers = default_workers();
  const std::vector<fs::path> shards{run.capture};
  const auto store = core::rollup_path_for(run.capture);

  // The rollup reference: the one shard analyzed, no store involved.
  const auto reference = rollup_query(shards, false);
  const auto check = [&](const RollupQuery& query, std::uint64_t hits, const char* what) {
    out.checks.record(query.report == reference.report && query.stats.shards == 1 &&
                          query.stats.store_hits == hits &&
                          query.stats.store_misses == 1 - hits &&
                          query.stats.store_writes == 1 - hits,
                      std::string("window2024 ") + what);
  };

  // Each rotation starts with a cold setup and takes every warm operation
  // once, so contention lands on all metrics alike.
  Samples cold, warm, warm_cpu, serial, query, update;
  Budget budget(options.seconds, 5);
  while (budget.next()) {
    remove_file(spc_path(run.capture));
    remove_file(store);
    cold.add(run.analyze(workers, false, nullptr));
    warm.add(run.analyze(workers, true, &warm_cpu));
    probe.run();
    serial.add(run.analyze(1, true, nullptr));
    probe.run();

    remove_file(store);
    const auto updated = rollup_query(shards, true);
    check(updated, 0, "update");
    update.add(updated.wall);
    out.counts.note("rollup.spr_bytes", file_bytes(store), out.checks);
    probe.run();

    const auto batch_start = Clock::now();
    for (int i = 0; i < kQueryBatch; ++i) check(rollup_query(shards, true), 1, "query");
    query.add(seconds_since(batch_start) / kQueryBatch);
    probe.run();
  }
  out.counts.note("ingest.spc_bytes", file_bytes(spc_path(run.capture)), out.checks);
  // One shard merged alone is the serial analysis of its capture.
  out.checks.record(reference.report == run.first_report.at(1),
                    "window2024 rollup report equals analyze workers=1");

  // Times are reported at the nominal host speed (see README.md, "Host
  // speed"); the raw samples stay on the diagnostics line.
  const double scale = probe.host_scale();
  out.metric("setup_s", cold.median() * scale, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("analyze_s", warm.min() * scale, "s");
  out.metric("analyze_cpu_s", warm_cpu.min() * scale, "s");
  out.metric("analyze_serial_s", serial.min() * scale, "s");
  out.metric("query_s", query.min() * scale, "s");
  out.metric("update_s", update.min() * scale, "s");
  out.diagnostic("host_scale", json_number(scale));
  out.diagnostic("workers", std::to_string(workers));
  out.diagnostic("setup_s", cold.json());
  out.diagnostic("analyze_s", warm.json());
  out.diagnostic("analyze_cpu_s", warm_cpu.json());
  out.diagnostic("analyze_serial_s", serial.json());
  out.diagnostic("query_s", query.json());
  out.diagnostic("update_s", update.json());
  return out;
}

}  // namespace perfbench
