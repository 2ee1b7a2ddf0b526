// Shared infrastructure for the experiment benches.
//
// Every paper bench binary regenerates one table or figure of the paper
// from a fresh simulation of the relevant measurement window(s).
// Command line:
//   --scale=<x>     divide volumes by x on top of the calibrated scale
//                   (ecosystem.h documents kPacketScale/kScanScale)
//   --year=<y>      restrict multi-year benches to one year
//   --seed=<s>      override the workload seed
//   --metrics[=<f>] emit an obs::RunReport at exit — machine-readable
//                   JSON when a path is given, an ASCII table otherwise
//                   (docs/OBSERVABILITY.md documents the schema)
//
// The four perf-smoke binaries (bench_ingest, bench_analyze,
// bench_synscand, bench_rollup) share the scaffold at the end of this
// file: their flag reader, scratch directory, telescope, burst-shaped
// capture and peak-RSS probe.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unistd.h>
#include <utility>
#include <variant>
#include <vector>

#include "core/analysis_summary.h"
#include "core/daily_series.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/volatility.h"
#include "enrich/registry.h"
#include "net/packet.h"
#include "obs/run_report.h"
#include "obs/timer.h"
#include "pcap/pcap.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"
#include "simgen/rng.h"
#include "telescope/telescope.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

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
    if (const auto scale = value_of("--scale=")) {
      options.scale = std::stod(*scale);
    } else if (const auto year = value_of("--year=")) {
      options.year = std::stoi(*year);
    } else if (const auto metrics = value_of("--metrics=")) {
      options.metrics = *metrics;
    } else if (arg == "--metrics") {
      options.metrics = std::string();
    } else if (const auto seed = value_of("--seed=")) {
      options.seed = std::stoull(*seed);
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
/// extracted by `seconds_of(result)` — is the median. A single-shot
/// sample's run-to-run swing would read as a regression against a
/// perf-smoke gate; the warmup + median pair is what makes one run
/// comparable to the next.
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
/// The port tally needs none: the pipeline keeps it as the residual and
/// the campaigns' maps, and `result.port_tally()` composes it.
struct Observers {
  bool volatility = false;
  bool daily_series = false;
};

/// One simulated measurement window, fully analyzed.
struct YearRun {
  simgen::YearConfig config;
  simgen::GeneratorStats generated;
  core::PipelineResult result;
  std::optional<core::VolatilityTracker> volatility;
  std::optional<core::DailyPortSeries> daily;

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

// --- Perf-smoke scaffold ------------------------------------------------

/// One command-line flag of a perf-smoke binary and the option it sets.
/// A number or string is given as `--name=value` and converts the way
/// strtoull, atoi and strtod do (an unparsable value reads as 0); a
/// bool is a bare `--name` switch.
struct Flag {
  std::string_view name;
  std::variant<std::uint64_t*, int*, double*, std::string*, bool*> target;
};

/// Sets the option of every flag named in argv. An argument that names
/// no flag is reported on stderr and exits with status 2.
inline void parse_flags(int argc, char** argv, std::initializer_list<Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
      const auto spelled = "--" + std::string(f.name);
      return std::holds_alternative<bool*>(f.target)
                 ? arg == spelled
                 : arg.substr(0, spelled.size() + 1) == spelled + "=";
    });
    if (flag == flags.end()) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
    // What follows "--name="; empty for a switch.
    const std::string value(arg.substr(std::min(arg.size(), flag->name.size() + 3)));
    std::visit(
        [&](auto* target) {
          using T = std::remove_pointer_t<decltype(target)>;
          if constexpr (std::is_same_v<T, bool>) {
            *target = true;
          } else if constexpr (std::is_same_v<T, std::string>) {
            *target = value;
          } else if constexpr (std::is_same_v<T, double>) {
            *target = std::strtod(value.c_str(), nullptr);
          } else if constexpr (std::is_same_v<T, int>) {
            *target = std::atoi(value.c_str());
          } else {
            *target = std::strtoull(value.c_str(), nullptr, 10);
          }
        },
        flag->target);
  }
}

/// A fresh scratch directory for one run of a perf-smoke binary, removed
/// when it goes out of scope. The process id in its name keeps
/// concurrent runs of one binary from deleting each other's files.
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view binary)
      : path_(std::filesystem::temp_directory_path() /
              ("synscan_" + std::string(binary) + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ScratchDir(ScratchDir&&) = delete;
  ScratchDir& operator=(ScratchDir&&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

/// The perf-smoke telescope: 198.51.0.0/16, every address dark, 23/TCP
/// dropped at the ingress.
inline const telescope::Telescope& bench_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/16"), 1000}},
      {{23, 0}});
  return telescope;
}

/// Writes a campaign-shaped capture of `frames` frames: a pool of 4096
/// sources emitting *bursts* of SYN probes (scan traffic arrives in
/// per-source runs — the access pattern the batched observers'
/// memoization targets), with enough backscatter and off-telescope
/// noise that the sensor branches stay on the measured ingest path.
inline void write_burst_capture(const std::filesystem::path& path, std::uint64_t frames,
                                std::uint64_t seed) {
  simgen::Rng rng(seed);
  auto writer = pcap::Writer::create(path);
  net::RawFrame frame;
  net::TimeUs now = 0;
  constexpr std::uint32_t kSources = 4096;
  std::uint32_t burst_source = 0;
  std::uint16_t burst_port = 80;
  std::uint32_t burst_left = 0;
  for (std::uint64_t i = 0; i < frames; ++i) {
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

/// Peak resident set size in kilobytes, or 0 where unsupported.
inline long peak_rss_kb() {
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

}  // namespace synscan::bench
