// The traced run: the workload's inputs taken through every layer, one
// call at a time on the main thread, with a span around each call into
// a layer's public functions. Parallel operations are replayed serially
// (run_shards as its load/analyze/save calls in plan order; the
// ParallelAnalyzer driven from its one feeder), so the spans give each
// layer's busy time. Every operation's report must equal the untraced
// program's bytes, and for the serial operations the layer spans must
// cover the operation's wall time within kAccountingTolerance.
#include <optional>

#include "core/parallel.h"
#include "core/rollup_store.h"
#include "inputs.h"
#include "server/protocol.h"
#include "server/query.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = synscan::core;
namespace server = synscan::server;

/// Largest share of an operation's wall time its layer spans may leave
/// uncovered (harness glue between calls).
constexpr double kAccountingTolerance = 0.02;
/// Client roundtrips in the traced server pass: enough that p99 has ten
/// samples beyond it.
constexpr std::size_t kRoundtrips = 1000;
/// Cycles through the mix between in-process executions of it (25
/// executions of each query over the pass).
constexpr std::size_t kExecuteEvery = 10;

struct Analysis {
  std::string report;
  std::size_t root = 0;
  double wall = 0;
  core::TrackerCounters tracker;
  std::uint64_t campaigns = 0;
  std::uint64_t frames = 0;
  std::uint64_t probes = 0;
  bool all_cached = true;
};

struct RollupPass {
  std::string report;
  std::size_t root = 0;
  double wall = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t segments = 0;
};

/// The standard observers of `analyze_capture`, each behind a
/// forwarding observer that times it.
struct Observers {
  explicit Observers(Tracer& t)
      : types(bench_registry()),
        geo(bench_registry()),
        timed_ports(ports, t, "observers.ports"),
        timed_types(types, t, "observers.types"),
        timed_geo(geo, t, "observers.geo") {}
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  core::PortTally ports;
  core::TypeTally types;
  core::GeoTally geo;
  TimedObserver timed_ports;
  TimedObserver timed_types;
  TimedObserver timed_geo;
};

class Tour {
 public:
  Tour(const RunOptions& options, Outcome& out, Tracer& tracer)
      : out_(out), tracer_(tracer), plan_(workload_plan(options)) {
    for (const auto& entry : plan_.shards) captures_.push_back(entry.capture);
  }

  /// The `analyze_capture(workers=1)` path over every capture in plan
  /// order through one pipeline: ingest, feed, observers, finish, emit.
  /// Construction and teardown get spans of their own, so the layers
  /// account for the whole operation.
  Analysis analyze_serial(Tracer& t, std::string_view op_name) {
    Analysis a;
    const auto start = Clock::now();
    {
      const auto op = t.span(op_name);
      a.root = op.index();
      std::optional<core::Pipeline> pipeline;
      std::optional<Observers> observers;
      {
        const auto scope = t.span("pipeline.setup");
        pipeline.emplace(bench_telescope());
        observers.emplace(t);
        pipeline->add_observer(observers->timed_ports);
        pipeline->add_observer(observers->timed_types);
        pipeline->add_observer(observers->timed_geo);
      }
      const auto ingest = t.intern("ingest");
      const auto feed = t.intern("pipeline.feed");
      for (const auto& capture : captures_) {
        core::IngestResult ingested;
        {
          const auto scope = t.span(ingest);
          ingested = core::ingest_capture(capture, bench_telescope(), core::IngestOptions{},
                                          [&](const synscan::telescope::ProbeBatch& batch) {
                                            const auto inner = t.span(feed);
                                            pipeline->feed_probes(batch);
                                          });
        }
        pipeline->absorb_sensor_counters(ingested.sensor);
        a.frames += ingested.frames;
        a.all_cached = a.all_cached && ingested.from_cache;
      }
      core::PipelineResult result;
      {
        const auto scope = t.span("pipeline.finish");
        result = pipeline->finish();
      }
      {
        const auto scope = t.span("report.emit");
        a.report = emit_report(result);
      }
      a.tracker = result.tracker;
      a.campaigns = result.campaigns.size();
      a.probes = result.sensor.scan_probes;
      {
        const auto scope = t.span("pipeline.teardown");
        observers.reset();
        pipeline.reset();
        result = {};
      }
    }
    a.wall = seconds_since(start);
    return a;
  }

  /// The `analyze_capture(workers=N)` path: the feeder hands each batch
  /// to the ParallelAnalyzer, then to the observers, in file order.
  Analysis analyze_parallel(Tracer& t, std::string_view op_name) {
    Analysis a;
    const auto start = Clock::now();
    {
      const auto op = t.span(op_name);
      a.root = op.index();
      std::optional<core::ParallelAnalyzer> analyzer;
      std::optional<Observers> observers;
      {
        const auto scope = t.span("parallel.setup");
        analyzer.emplace(bench_telescope(), default_workers());
        observers.emplace(t);
      }
      const auto ingest = t.intern("ingest");
      const auto feed = t.intern("parallel.feed");
      std::vector<std::uint32_t> rows;
      for (const auto& capture : captures_) {
        core::IngestResult ingested;
        {
          const auto scope = t.span(ingest);
          ingested = core::ingest_capture(
              capture, bench_telescope(), core::IngestOptions{},
              [&](const synscan::telescope::ProbeBatch& batch) {
                {
                  const auto inner = t.span(feed);
                  analyzer->feed_probes(batch);
                }
                const auto n = batch.size();
                while (rows.size() < n) rows.push_back(static_cast<std::uint32_t>(rows.size()));
                const std::span<const std::uint32_t> all(rows.data(), n);
                observers->timed_ports.observe_batch(batch, all);
                observers->timed_types.observe_batch(batch, all);
                observers->timed_geo.observe_batch(batch, all);
              });
        }
        analyzer->absorb_sensor_counters(ingested.sensor);
        a.frames += ingested.frames;
      }
      core::PipelineResult result;
      {
        const auto scope = t.span("parallel.finish");
        result = analyzer->finish();
      }
      {
        const auto scope = t.span("report.emit");
        a.report = emit_report(result);
      }
      a.campaigns = result.campaigns.size();
      {
        const auto scope = t.span("parallel.teardown");
        observers.reset();
        analyzer.reset();
        result = {};
      }
    }
    a.wall = seconds_since(start);
    return a;
  }

  /// `run_shards` over the store, one shard at a time in plan order:
  /// load, or analyze and save; then merge and emit.
  RollupPass rollup(Tracer& t, std::string_view op_name) {
    RollupPass pass;
    const auto start = Clock::now();
    {
      const auto op = t.span(op_name);
      pass.root = op.index();
      core::ShardPlan plan;
      {
        const auto scope = t.span("rollup.plan");
        plan = core::plan_shards(captures_);
      }
      const auto fingerprint = core::analysis_fingerprint(
          core::TrackerConfig{}, bench_telescope().monitored_count());
      std::vector<core::CaptureRollup> rollups;
      rollups.reserve(plan.shards.size());
      for (const auto& entry : plan.shards) {
        const auto store = core::rollup_path_for(entry.capture);
        std::optional<core::CacheIdentity> identity;
        std::optional<core::CaptureRollup> stored;
        {
          const auto scope = t.span("rollup.load");
          identity = core::cache_identity(entry.capture);
          if (identity) stored = core::load_rollup(store, bench_registry(), *identity, fingerprint);
        }
        if (stored) {
          stored->capture = entry.capture;
          ++pass.hits;
          pass.segments += stored->segments.size();
          rollups.push_back(std::move(*stored));
          continue;
        }
        ++pass.misses;
        std::optional<core::CaptureRollup> fresh;
        {
          const auto scope = t.span("rollup.analyze");
          fresh.emplace(core::analyze_shard(entry.capture, bench_telescope(), bench_registry(),
                                            core::TrackerConfig{}, core::IngestOptions{}));
        }
        {
          const auto scope = t.span("rollup.save");
          if (identity && core::save_rollup(store, *fresh, *identity, fingerprint)) {
            ++pass.writes;
          }
        }
        pass.segments += fresh->segments.size();
        rollups.push_back(std::move(*fresh));
      }
      std::optional<core::AnalyzedCapture> merged;
      {
        const auto scope = t.span("rollup.merge");
        core::RollupMerger merger(bench_telescope(), bench_registry(), core::TrackerConfig{});
        for (auto& shard : rollups) merger.add(std::move(shard));
        merged.emplace(merger.finish());
      }
      {
        const auto scope = t.span("report.emit");
        pass.report = emit_report(merged->result);
      }
      {
        const auto scope = t.span("rollup.teardown");
        merged.reset();
        rollups = {};
      }
    }
    pass.wall = seconds_since(start);
    return pass;
  }

  void run(MemProbe& probe);

 private:
  void check_accounting(std::size_t root, std::string_view what) {
    const double share = tracer_.uncovered_share(root);
    out_.checks.record(share <= kAccountingTolerance,
                       std::string(what) + " layer spans cover the wall time (uncovered " +
                           std::to_string(share * 100) + "%)");
    accounting_.emplace_back(what, share);
  }
  void server_pass(const core::AnalyzedCapture& local);

  Outcome& out_;
  Tracer& tracer_;
  core::ShardPlan plan_;
  std::vector<fs::path> captures_;
  std::vector<std::pair<std::string, double>> accounting_;
};

void Tour::run(MemProbe& probe) {
  Tracer quiet(false);
  auto& checks = out_.checks;
  const auto n = static_cast<std::uint64_t>(captures_.size());
  const auto same = [&](const std::string& got, const std::string& want, std::string_view what) {
    checks.record(got == want, std::string(what) + " report equals the untraced program's");
  };

  // The untraced program's bytes: `analyze --workers=1 --json` for one
  // capture, `rollup query --no-rollup-store` for a shard set. Both equal
  // one serial analysis of the concatenated captures, which is what
  // every serial and rollup operation below must reproduce.
  std::string reference;
  if (captures_.size() == 1) {
    reference = emit_report(core::analyze_capture(captures_.front(), bench_telescope(),
                                                  bench_registry(), 1, core::IngestOptions{})
                                .result);
  } else {
    core::ShardRunOptions no_store;
    no_store.use_rollup_store = false;
    reference = emit_report(core::run_shards(plan_, bench_telescope(), bench_registry(),
                                             core::TrackerConfig{}, no_store)
                                .analysis.result);
  }
  probe.run();

  for (const auto& capture : captures_) remove_file(spc_path(capture));
  const auto cold = analyze_serial(tracer_, "op.analyze_cold");
  same(cold.report, reference, "cold serial analysis");
  checks.record(!cold.all_cached, "cold serial analysis scanned the captures");
  check_accounting(cold.root, "cold serial analysis");
  std::uint64_t spc_bytes = 0;
  for (const auto& capture : captures_) spc_bytes += file_bytes(spc_path(capture));

  const auto warm_quiet = analyze_serial(quiet, "op.analyze_warm");
  const auto warm = analyze_serial(tracer_, "op.analyze_warm");
  same(warm_quiet.report, reference, "warm serial analysis (untraced)");
  same(warm.report, reference, "warm serial analysis");
  checks.record(warm.all_cached, "warm serial analysis read the .spc caches");
  check_accounting(warm.root, "warm serial analysis");
  probe.run();

  const auto par_quiet = analyze_parallel(quiet, "op.analyze_parallel");
  const auto par = analyze_parallel(tracer_, "op.analyze_parallel");
  same(par.report, par_quiet.report, "parallel analysis");
  check_accounting(par.root, "parallel analysis");

  for (const auto& capture : captures_) remove_file(core::rollup_path_for(capture));
  const auto build = rollup(tracer_, "op.rollup_build");
  same(build.report, reference, "rollup store build");
  checks.record(build.misses == n && build.writes == n, "rollup store build missed every shard");
  check_accounting(build.root, "rollup store build");
  std::uint64_t spr_bytes = 0;
  for (const auto& capture : captures_) spr_bytes += file_bytes(core::rollup_path_for(capture));

  const auto query_quiet = rollup(quiet, "op.rollup_query");
  const auto query = rollup(tracer_, "op.rollup_query");
  same(query_quiet.report, reference, "rollup query (untraced)");
  same(query.report, reference, "rollup query");
  checks.record(query.hits == n && query.misses == 0, "rollup query hit every shard");
  check_accounting(query.root, "rollup query");

  remove_file(core::rollup_path_for(plan_.shards.back().capture));
  const auto update = rollup(tracer_, "op.rollup_update");
  same(update.report, reference, "rollup update");
  checks.record(update.hits == n - 1 && update.misses == 1 && update.writes == 1,
                "rollup update missed exactly the newest shard");
  check_accounting(update.root, "rollup update");
  probe.run();

  // The analysis a daemon holds: analyze_capture at the daemon's worker
  // count for one capture, the merged store for a shard set.
  std::optional<core::AnalyzedCapture> local;
  if (captures_.size() == 1) {
    local.emplace(core::analyze_capture(captures_.front(), bench_telescope(), bench_registry(),
                                        default_workers(), core::IngestOptions{}));
    same(par.report, emit_report(local->result), "parallel analysis vs analyze_capture");
  } else {
    core::ShardRunOptions with_store;
    local.emplace(core::run_shards(plan_, bench_telescope(), bench_registry(),
                                   core::TrackerConfig{}, with_store)
                      .analysis);
  }
  server_pass(*local);
  probe.run();

  const auto s = [&](std::size_t root, std::string_view name) { return tracer_.self_s(root, name); };
  out_.metric("ingest.cold_s", s(cold.root, "ingest"), "s");
  out_.metric("ingest.warm_s", s(warm.root, "ingest"), "s");
  out_.metric("ingest.frames", static_cast<double>(cold.frames), "count");
  out_.metric("ingest.probes", static_cast<double>(cold.probes), "count");
  out_.metric("ingest.spc_bytes", static_cast<double>(spc_bytes), "bytes");
  out_.metric("pipeline.feed_s", s(warm.root, "pipeline.feed"), "s");
  out_.metric("pipeline.finish_s", s(warm.root, "pipeline.finish"), "s");
  out_.metric("tracker.campaigns", static_cast<double>(warm.campaigns), "count");
  out_.metric("tracker.expired_flows", static_cast<double>(warm.tracker.expired_flows), "count");
  out_.metric("tracker.peak_open_flows", static_cast<double>(warm.tracker.peak_open_flows),
              "count");
  out_.metric("observers.ports_s", s(warm.root, "observers.ports"), "s");
  out_.metric("observers.types_s", s(warm.root, "observers.types"), "s");
  out_.metric("observers.geo_s", s(warm.root, "observers.geo"), "s");
  out_.metric("parallel.feed_s", s(par.root, "parallel.feed"), "s");
  out_.metric("parallel.finish_s", s(par.root, "parallel.finish"), "s");
  out_.metric("rollup.plan_s", s(query.root, "rollup.plan"), "s");
  out_.metric("rollup.load_s", s(query.root, "rollup.load"), "s");
  out_.metric("rollup.merge_s", s(query.root, "rollup.merge"), "s");
  out_.metric("rollup.analyze_s", s(build.root, "rollup.analyze"), "s");
  out_.metric("rollup.save_s", s(build.root, "rollup.save"), "s");
  out_.metric("rollup.shards", static_cast<double>(n), "count");
  out_.metric("rollup.segments", static_cast<double>(query.segments), "count");
  out_.metric("rollup.spr_bytes", static_cast<double>(spr_bytes), "bytes");
  out_.metric("rollup.store_hits",
              static_cast<double>(build.hits + query.hits + update.hits), "count");
  out_.metric("rollup.store_misses",
              static_cast<double>(build.misses + query.misses + update.misses), "count");
  out_.metric("report.emit_s", s(warm.root, "report.emit"), "s");
  out_.metric("report.bytes", static_cast<double>(warm.report.size()), "bytes");

  out_.counts.note("ingest.frames", cold.frames, checks);
  out_.counts.note("ingest.probes", cold.probes, checks);
  out_.counts.note("ingest.spc_bytes", spc_bytes, checks);
  out_.counts.note("tracker.campaigns", warm.campaigns, checks);
  out_.counts.note("report.bytes", warm.report.size(), checks);
  out_.counts.note("rollup.spr_bytes", spr_bytes, checks);
  out_.counts.note("rollup.segments", query.segments, checks);

  std::string accounting = "{";
  for (const auto& [what, share] : accounting_) {
    accounting += (accounting.size() > 1 ? ",\"" : "\"") + what + "\":" + json_number(share);
  }
  accounting += "}";
  out_.diagnostic("accounting_uncovered_share", accounting);
  out_.diagnostic("accounting_tolerance", json_number(kAccountingTolerance));
  out_.diagnostic(
      "tracing_overhead_s",
      "{\"analyze_warm\":" + json_number(warm.wall - warm_quiet.wall) +
          ",\"analyze_parallel\":" + json_number(par.wall - par_quiet.wall) +
          ",\"rollup_query\":" + json_number(query.wall - query_quiet.wall) + "}");
  out_.diagnostic("untraced_wall_s",
                  "{\"analyze_warm\":" + json_number(warm_quiet.wall) +
                      ",\"analyze_parallel\":" + json_number(par_quiet.wall) +
                      ",\"rollup_query\":" + json_number(query_quiet.wall) + "}");
  out_.diagnostic("self_s_analyze_warm", tracer_.self_json(warm.root));
  out_.diagnostic("self_s_rollup_update", tracer_.self_json(update.root));
}

void Tour::server_pass(const core::AnalyzedCapture& local) {
  auto& checks = out_.checks;
  const auto& mix = query_mix();
  const auto expected = expected_responses(local);
  std::uint64_t response_bytes = 0;
  for (const auto& payload : expected) response_bytes += payload.size();

  // Execution alone: run_query in process on the same analysis. One
  // untimed execution first warms the caches for this copy of the
  // analysis, as the daemon's workers are warm for theirs.
  std::vector<Samples> execute(mix.size());
  const auto execute_once = [&](std::size_t q) {
    server::Request request;
    std::string error;
    std::string payload(server::kOkHeader);
    const bool parsed = server::parse_request(mix[q].command, request, error);
    std::string warmup(server::kOkHeader);
    if (parsed) (void)server::run_query(local, request, warmup, error);
    const auto start = Clock::now();
    {
      const auto scope = tracer_.span("server.execute");
      checks.record(parsed && server::run_query(local, request, payload, error) &&
                        payload == expected[q],
                    "in-process run_query '" + mix[q].command + "'");
    }
    execute[q].add(seconds_since(start));
  };

  // Daemon start plus making the inputs resident, as on a restart.
  std::optional<ServedDaemon> served;
  const auto preload_start = Clock::now();
  if (captures_.size() == 1) {
    const auto scope = tracer_.span("server.preload");
    served.emplace();
    served->daemon().preload(captures_.front().string());
    served->start();
  } else {
    // A shard set becomes resident through the ROLLUP verb.
    const auto scope = tracer_.span("server.preload");
    served.emplace();
    served->start();
    auto client = connect_daemon();
    std::string command = "ROLLUP";
    for (const auto& capture : captures_) command += " " + capture.string();
    std::string_view body;
    std::string error;
    const auto response = client.roundtrip(command);
    checks.record(server::parse_response(response, body, error), "ROLLUP made the shard set resident");
  }
  const double preload_s = seconds_since(preload_start);

  std::vector<Samples> roundtrip(mix.size());
  Samples all;
  {
    auto client = connect_daemon();
    const auto span_name = tracer_.intern("server.roundtrip");
    // Every kExecuteEvery-th cycle through the mix also executes each
    // query in process right after its roundtrip, so both sample sets see
    // the same host conditions.
    for (std::size_t i = 0; i < kRoundtrips; ++i) {
      const auto q = i % mix.size();
      const auto start = Clock::now();
      std::string response;
      {
        const auto scope = tracer_.span(span_name);
        response = client.roundtrip(mix[q].command);
      }
      const double elapsed = seconds_since(start);
      roundtrip[q].add(elapsed);
      all.add(elapsed);
      checks.record(response == expected[q], "daemon response to '" + mix[q].command + "'");
      if ((i / mix.size()) % kExecuteEvery == 0) execute_once(q);
    }
  }
  const auto error = served->stop();
  checks.record(error.empty(), "daemon serve: " + error);

  const auto kind_median = [&](const std::vector<Samples>& samples, std::string_view kind) {
    Samples merged;
    for (std::size_t q = 0; q < mix.size(); ++q) {
      if (mix[q].kind == kind) merged.add(samples[q].median());
    }
    return merged.median() * 1e3;
  };
  // Transport: the counters query's roundtrip minus its execution (a few
  // microseconds), i.e. the per-request protocol, socket and hand-off
  // cost. The big reports are not used: the daemon's copy of the
  // analysis and this process's copy sit differently in memory, and
  // their execution times differ by more than the transport.
  double transport = 0;
  for (std::size_t q = 0; q < mix.size(); ++q) {
    if (mix[q].kind == "counters") {
      transport = (roundtrip[q].median() - execute[q].median()) * 1e3;
    }
  }

  out_.metric("server.preload_s", preload_s, "s");
  for (const char* kind : {"analyze", "campaigns", "counters"}) {
    out_.metric(std::string("server.execute_ms.") + kind, kind_median(execute, kind), "ms");
  }
  for (const char* kind : {"analyze", "campaigns", "counters"}) {
    out_.metric(std::string("server.roundtrip_ms.") + kind, kind_median(roundtrip, kind), "ms");
  }
  out_.metric("server.roundtrip_p99_ms", all.quantile(0.99) * 1e3, "ms");
  out_.metric("server.transport_ms", transport, "ms");
  out_.metric("server.response_bytes", static_cast<double>(response_bytes), "bytes");
  out_.counts.note("server.response_bytes", response_bytes, checks);
}

}  // namespace

Outcome run_tour(const RunOptions& options, MemProbe& probe) {
  Outcome out;
  Tracer tracer(true);
  Tour tour(options, out, tracer);
  tour.run(probe);
  tracer.write(options.trace_out);
  return out;
}

}  // namespace perfbench
