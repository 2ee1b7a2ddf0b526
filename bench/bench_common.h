// Shared infrastructure for the experiment benches.
//
// Every bench binary regenerates one table or figure of the paper from a
// fresh simulation of the relevant measurement window(s). Command line:
//   --scale=<x>     divide volumes by x on top of the calibrated scale
//                   (ecosystem.h documents kPacketScale/kScanScale)
//   --year=<y>      restrict multi-year benches to one year
//   --seed=<s>      override the workload seed
//   --metrics[=<f>] emit an obs::RunReport at exit — machine-readable
//                   JSON when a path is given, an ASCII table otherwise
//                   (docs/OBSERVABILITY.md documents the schema)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/analysis_summary.h"
#include "core/daily_series.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/port_tally.h"
#include "core/volatility.h"
#include "enrich/registry.h"
#include "obs/run_report.h"
#include "obs/timer.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"
#include "telescope/telescope.h"

namespace synscan::bench {

struct Options {
  double scale = 1.0;
  std::optional<int> year;
  std::optional<std::uint64_t> seed;
  /// Destination of the end-of-run metrics report: empty string = ASCII
  /// table on stdout, anything else = JSON file path.
  std::optional<std::string> metrics;
};

namespace detail {

/// State for the atexit run-report emitter (atexit takes no context).
inline std::string& metrics_destination() {
  static std::string destination;
  return destination;
}
inline std::string& metrics_label() {
  static std::string label;
  return label;
}

inline void emit_run_report() {
  const auto report = obs::RunReport::capture(metrics_label());
  if (report.metrics.empty()) return;
  const auto& destination = metrics_destination();
  if (destination.empty()) {
    std::cout << "\n-- run report --\n" << report.to_table();
    return;
  }
  std::ofstream out(destination, std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "cannot write run report to " << destination << "\n";
    return;
  }
  report.write_json(out);
  out << '\n';
  std::cerr << "wrote run report to " << destination << "\n";
}

}  // namespace detail

/// Turns observability on and schedules a run report at process exit.
/// Shared by every bench so each figure/table binary can emit a
/// machine-readable account of its run next to the paper numbers.
inline void install_metrics_hook(const Options& options, std::string_view binary) {
  if (!options.metrics) return;
  obs::set_enabled(true);
  // Construct the global registry *before* registering the atexit
  // emitter: exit-time teardown is LIFO, so anything the callback reads
  // must already exist here or it will be destroyed first.
  (void)obs::MetricsRegistry::global();
  detail::metrics_destination() = *options.metrics;
  const auto slash = binary.find_last_of('/');
  detail::metrics_label() =
      std::string(slash == std::string_view::npos ? binary : binary.substr(slash + 1));
  std::atexit([] { detail::emit_run_report(); });
}

inline Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&](std::string_view prefix) -> std::optional<std::string> {
      if (arg.substr(0, prefix.size()) != prefix) return std::nullopt;
      return std::string(arg.substr(prefix.size()));
    };
    if (const auto v = value_of("--scale=")) {
      options.scale = std::stod(*v);
    } else if (const auto v = value_of("--year=")) {
      options.year = std::stoi(*v);
    } else if (const auto v = value_of("--metrics=")) {
      options.metrics = *v;
    } else if (arg == "--metrics") {
      options.metrics = std::string();
    } else if (const auto v = value_of("--seed=")) {
      options.seed = std::stoull(*v);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --scale=<x> --year=<y> --seed=<s> --metrics[=<file>]\n";
      std::exit(0);
    }
  }
  install_metrics_hook(options, argc > 0 ? argv[0] : "bench");
  return options;
}

/// Warmed median-of-N runner. Executes `run` `warmup` unmeasured times
/// (absorbing cold-cache and first-touch page-fault effects), then
/// `iterations` measured times, and returns the run whose duration —
/// extracted by `seconds_of(result)` — is the median. BENCH_*.json is a
/// trajectory compared across commits, so a single-shot sample's
/// run-to-run swing reads as a phantom regression; the warmup + median
/// pair is what makes one appended record comparable to the last.
template <typename Run, typename SecondsOf>
auto median_result(Run&& run, SecondsOf&& seconds_of, int iterations, int warmup) {
  for (int i = 0; i < warmup; ++i) (void)run();
  using Result = decltype(run());
  std::vector<Result> results;
  results.reserve(static_cast<std::size_t>(std::max(iterations, 1)));
  for (int i = 0; i < std::max(iterations, 1); ++i) results.push_back(run());
  std::sort(results.begin(), results.end(), [&](const Result& a, const Result& b) {
    return seconds_of(a) < seconds_of(b);
  });
  return std::move(results[results.size() / 2]);
}

/// Median wall-clock seconds of `body` over warmed iterations.
template <typename Body>
double median_seconds(Body&& body, int iterations = 5, int warmup = 1) {
  return median_result(
      [&body] {
        const auto start = std::chrono::steady_clock::now();
        body();
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
      },
      [](double seconds) { return seconds; }, iterations, warmup);
}

/// Which streaming observers a bench needs (each costs memory/time).
struct Observers {
  bool port_tally = true;
  bool volatility = false;
  bool daily_series = false;
};

/// One simulated measurement window, fully analyzed.
struct YearRun {
  simgen::YearConfig config;
  simgen::GeneratorStats generated;
  core::PipelineResult result;
  core::PortTally tally;
  std::optional<core::VolatilityTracker> volatility;
  std::optional<core::DailyPortSeries> daily;

  [[nodiscard]] double packets_per_day() const {
    return static_cast<double>(tally.total_packets()) / config.window_days;
  }
  [[nodiscard]] double scans_per_month() const {
    return static_cast<double>(result.campaigns.size()) / config.window_days * 30.44;
  }
};

inline const telescope::Telescope& shared_telescope() {
  static const auto telescope = telescope::Telescope::paper_default();
  return telescope;
}

inline const enrich::InternetRegistry& shared_registry() {
  return enrich::InternetRegistry::synthetic_default();
}

/// Simulates one window into `pipeline` the way production feeds it:
/// frames classified in batches by `core::FrameBatcher`, each probe
/// batch through `feed_probes`, the sensor counters absorbed at the end.
inline simgen::GeneratorStats generate_into(core::Pipeline& pipeline,
                                            simgen::YearConfig config) {
  simgen::TrafficGenerator generator(std::move(config), shared_telescope(),
                                     shared_registry());
  core::FrameBatcher batcher(shared_telescope(), [&](const telescope::ProbeBatch& batch) {
    pipeline.feed_probes(batch);
  });
  const auto stats = generator.run([&](const net::RawFrame& f) { batcher.push(f); });
  pipeline.absorb_sensor_counters(batcher.finish());
  return stats;
}

/// Runs one window through the pipeline with the requested observers.
inline YearRun run_window(simgen::YearConfig config, const Observers& observers = {}) {
  YearRun run;
  run.config = config;

  core::Pipeline pipeline(shared_telescope());
  if (observers.port_tally) pipeline.add_observer(run.tally);
  if (observers.volatility) {
    run.volatility.emplace(config.start_time);
    pipeline.add_observer(*run.volatility);
  }
  if (observers.daily_series) {
    run.daily.emplace(config.start_time);
    pipeline.add_observer(*run.daily);
  }

  {
    obs::ScopedTimer generate("bench.generate_and_feed");
    run.generated = generate_into(pipeline, std::move(config));
  }
  {
    const obs::ScopedTimer finish("bench.finish");
    run.result = pipeline.finish();
  }
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs::publish(registry, run.result.sensor);
    obs::publish(registry, run.result.tracker);
    registry.counter("bench.windows").add(1);
    registry.counter("bench.campaigns").add(run.result.campaigns.size());
  }
  if (run.volatility) {
    for (const auto& campaign : run.result.campaigns) {
      run.volatility->on_campaign(campaign);
    }
  }
  return run;
}

/// Runs a calibrated year.
inline YearRun run_year(int year, const Options& options, const Observers& observers = {}) {
  auto config = simgen::year_config(year, options.scale);
  if (options.seed) config.seed = *options.seed;
  return run_window(std::move(config), observers);
}

/// The total downscale applied to packet volumes, for back-conversion
/// into paper-comparable units.
inline double packet_upscale(const Options& options) {
  return simgen::kPacketScale * options.scale;
}
inline double scan_upscale(const Options& options) {
  return simgen::kScanScale * options.scale;
}

inline void print_banner(std::string_view experiment, std::string_view paper_ref,
                         const Options& options) {
  std::cout << "================================================================\n"
            << experiment << "  (" << paper_ref << ")\n"
            << "scale: packets 1/" << packet_upscale(options) << ", scans 1/"
            << scan_upscale(options) << " of the paper's telescope\n"
            << "================================================================\n";
}

}  // namespace synscan::bench
