// Shared pieces of the benchmark harness: clocks, sample sets, the
// host-contention probe, operation checks, the count ledger and result
// printing. Nothing here calls into synscan except the report emission
// helper, which is the `analyze --json` byte stream.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "enrich/registry.h"
#include "telescope/telescope.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
/// User plus system CPU time of the whole process (all threads).
[[nodiscard]] double cpu_seconds();
/// High-water resident set of this process.
[[nodiscard]] double peak_rss_mb();

/// The telescope and registry every synscan command uses.
[[nodiscard]] const synscan::telescope::Telescope& bench_telescope();
[[nodiscard]] const synscan::enrich::InternetRegistry& bench_registry();

/// The CLI's default replay worker count (`synscan analyze` without
/// `--workers`): one core kept for the feeder, clamped to [2, 8].
[[nodiscard]] std::size_t default_workers();

/// The exact bytes `synscan analyze --json` writes: counters object,
/// newline, campaign JSON lines.
[[nodiscard]] std::string emit_report(const synscan::core::PipelineResult& result);

/// Repetitions of one timed operation.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Linear interpolation between order statistics; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// {"n":..,"min":..,"q1":..,"median":..,"q3":..,"max":..,"series":[..]}
  /// scaled by `scale`; the series keeps the run's order.
  [[nodiscard]] std::string json(double scale = 1.0) const;

 private:
  std::vector<double> values_;
};

/// A fixed memory-bound reference loop: a dependent random walk over a
/// 16 MiB cycle, far larger than the private caches. Its time moves with
/// the machine's memory contention, never with synscan code, so a slow
/// run can be told apart as a noisy neighbour or a regression.
class MemProbe {
 public:
  /// The walk's typical time on the reference host (4-vCPU Xeon VM).
  static constexpr double kNominalS = 0.16;

  MemProbe();
  /// Runs the walk once; returns seconds.
  double run();
  [[nodiscard]] const Samples& samples() const noexcept { return samples_; }
  /// Factor that turns seconds measured in this run into seconds at the
  /// nominal host speed: kNominalS over the run's median walk time.
  [[nodiscard]] double host_scale() const { return kNominalS / samples_.median(); }

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
  Samples samples_;
};

/// Operations attempted and failed. Every timed repetition, query and
/// self-check is one operation.
class Checks {
 public:
  /// Counts one operation; logs `what` to stderr when it failed.
  bool record(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Counts that are a pure function of the seed and the program: they
/// must read the same in every repetition of a run and in every run over
/// the same inputs. The first run over an input writes the ledger file;
/// later runs compare against it.
class CountLedger {
 public:
  /// Records `value` for `name`; a second value for the same name must
  /// be equal (one failed check otherwise).
  void note(std::string_view name, std::uint64_t value, Checks& checks);
  /// Compares with (or creates) the ledger file at `path`.
  void settle(const fs::path& path, Checks& checks) const;
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counts_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run prints.
struct Outcome {
  Checks checks;
  CountLedger counts;
  std::vector<Metric> metrics;
  /// Extra keys of the diagnostics line, as raw JSON values.
  std::vector<std::pair<std::string, std::string>> diagnostics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void diagnostic(std::string key, std::string json_value) {
    diagnostics.emplace_back(std::move(key), std::move(json_value));
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Input shrink factor: 1 is the benchmark's size; the smoke test
  /// uses a larger value for tiny inputs.
  double shrink = 1;
  fs::path dir;          ///< generated inputs (the run's working files)
  fs::path ledger;       ///< count ledger for this workload and seed
  fs::path trace_out;    ///< where a traced run writes its spans
};

/// Drives a time-boxed measurement: rotations keep starting while the
/// previous rotation would still fit before the deadline, and at least
/// `min_rotations` run whatever the budget.
class Budget {
 public:
  Budget(double seconds, std::size_t min_rotations);
  /// True when another rotation should start.
  [[nodiscard]] bool next();
  [[nodiscard]] std::size_t rotations() const noexcept { return rotations_; }

 private:
  Clock::time_point start_;
  Clock::time_point last_;
  double seconds_;
  std::size_t min_rotations_;
  std::size_t rotations_ = 0;
  double longest_ = 0;
};

/// Removes `path` if present.
void remove_file(const fs::path& path);
[[nodiscard]] std::uint64_t file_bytes(const fs::path& path);

/// Formats a double with all its digits for JSON.
[[nodiscard]] std::string json_number(double value);

/// Prints the diagnostics line and, last, the result line.
void print_outcome(const Outcome& outcome, const MemProbe& probe);

}  // namespace perfbench
