// decade-rollup: a warm query does almost no tracker work; `.spr`
// decoding, the boundary-join merge and report emission dominate. The
// update re-analyzes and re-persists one shard beside the loads of all
// the others. A rollup-store or merge change shows here and bypasses
// window2024. The analyze operations re-analyze every shard from its
// `.spc` with the store off: the tracker's share of a decade.
#include "core/rollup_store.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace core = synscan::core;

RollupQuery rollup_query(const std::vector<fs::path>& shards, bool use_store,
                         std::size_t workers) {
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  const auto plan = core::plan_shards(shards);
  core::ShardRunOptions run_options;
  run_options.use_rollup_store = use_store;
  run_options.workers = workers;
  const auto run = core::run_shards(plan, bench_telescope(), bench_registry(),
                                    core::TrackerConfig{}, run_options);
  RollupQuery query{emit_report(run.analysis.result), run.stats, 0, 0};
  query.wall = seconds_since(start);
  query.cpu = cpu_seconds() - cpu_start;
  return query;
}

Outcome run_decade(const RunOptions& options, MemProbe& probe) {
  Outcome out;
  const auto plan = workload_plan(options);
  std::vector<fs::path> shards;
  for (const auto& entry : plan.shards) shards.push_back(entry.capture);
  const std::uint64_t n = shards.size();
  const auto newest = core::rollup_path_for(plan.shards.back().capture);

  // The reference: every shard re-analyzed, no store involved.
  const auto reference = rollup_query(shards, false);
  out.counts.note("rollup.shards", n, out.checks);
  out.counts.note("report.bytes", reference.report.size(), out.checks);

  const auto check = [&](const RollupQuery& query, std::uint64_t hits, std::uint64_t misses,
                         std::uint64_t writes, const char* what) {
    out.checks.record(query.report == reference.report && query.stats.shards == n &&
                          query.stats.store_hits == hits &&
                          query.stats.store_misses == misses &&
                          query.stats.store_writes == writes,
                      std::string("decade-rollup ") + what + " (hits " +
                          std::to_string(query.stats.store_hits) + ", misses " +
                          std::to_string(query.stats.store_misses) + ")");
  };

  Samples build, analyze, analyze_cpu, serial, warm, update;
  // Every other rotation starts from a clean directory with a store
  // build (its median needs only a few); every rotation takes each warm
  // operation once.
  Budget budget(options.seconds, 5);
  while (budget.next()) {
    if (budget.rotations() % 2 == 1) {
      for (const auto& shard : shards) {
        remove_file(spc_path(shard));
        remove_file(core::rollup_path_for(shard));
      }
      const auto built = rollup_query(shards, true);
      check(built, 0, n, n, "store build");
      build.add(built.wall);
    }

    const auto analyzed = rollup_query(shards, false);
    check(analyzed, 0, n, 0, "analyze");
    analyze.add(analyzed.wall);
    analyze_cpu.add(analyzed.cpu);
    probe.run();

    const auto analyzed_serial = rollup_query(shards, false, 1);
    check(analyzed_serial, 0, n, 0, "analyze workers=1");
    serial.add(analyzed_serial.wall);
    probe.run();

    const auto queried = rollup_query(shards, true);
    check(queried, n, 0, 0, "query");
    warm.add(queried.wall);
    probe.run();

    remove_file(newest);
    const auto updated = rollup_query(shards, true);
    check(updated, n - 1, 1, 1, "update");
    update.add(updated.wall);

    std::uint64_t spr_bytes = 0;
    std::uint64_t segments = 0;
    for (const auto& shard : shards) {
      const auto path = core::rollup_path_for(shard);
      spr_bytes += file_bytes(path);
      if (const auto info = core::rollup_stat(path)) segments += info->segments;
    }
    out.counts.note("rollup.spr_bytes", spr_bytes, out.checks);
    out.counts.note("rollup.segments", segments, out.checks);
    probe.run();
  }

  // Times are reported at the nominal host speed (see README.md, "Host
  // speed"); the raw samples stay on the diagnostics line. The store-off
  // analyses report their median: over two ten-seed sets it spread 3-10%
  // across seeds where the fastest repetition spread 7-16% (README.md,
  // "Steadiness evidence"); for the query and update the fastest spread
  // less.
  const double scale = probe.host_scale();
  out.metric("setup_s", build.median() * scale, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("analyze_s", analyze.median() * scale, "s");
  out.metric("analyze_cpu_s", analyze_cpu.median() * scale, "s");
  out.metric("analyze_serial_s", serial.median() * scale, "s");
  out.metric("query_s", warm.min() * scale, "s");
  out.metric("update_s", update.min() * scale, "s");
  out.diagnostic("host_scale", json_number(scale));
  out.diagnostic("setup_s", build.json());
  out.diagnostic("analyze_s", analyze.json());
  out.diagnostic("analyze_cpu_s", analyze_cpu.json());
  out.diagnostic("analyze_serial_s", serial.json());
  out.diagnostic("query_s", warm.json());
  out.diagnostic("update_s", update.json());
  return out;
}

}  // namespace perfbench
