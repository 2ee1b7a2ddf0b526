// RunReport: one serializable record of everything observability saw
// during a run — every registry metric plus the pipeline's own
// sensor/tracker counters folded in under their canonical names.
//
// Two output forms, both stable enough to diff across runs:
//   - JSON (schema `synscan.run_report/1`, documented in
//     docs/OBSERVABILITY.md) for machines: `synscan analyze
//     --metrics=metrics.json`, bench `--metrics=...`.
//   - An ASCII table (via report::Table) for eyeballs: bare `--metrics`.
// Reports are written, never read back; tests/obs/run_report_test.cpp
// pins the JSON bytes.
//
// This is the only obs component that depends on core/report; the
// metric cells themselves (obs/metrics.h) stay dependency-free so the
// hot-path libraries can link them.
#pragma once

#include <iosfwd>
#include <string>

#include "core/pipeline.h"
#include "obs/metrics.h"

namespace synscan::obs {

/// Folds a sensor tally into the registry as `sensor.*` counters
/// (add semantics: repeated publishes accumulate, so multi-window
/// benches report totals).
void publish(MetricsRegistry& registry, const telescope::SensorCounters& counters);

/// Folds a tracker tally into the registry as `tracker.*` counters.
/// `peak_open_flows` becomes a high-water-mark gauge.
void publish(MetricsRegistry& registry, const core::TrackerCounters& counters);

struct RunReport {
  std::string label;
  MetricsRegistry::Snapshot metrics;

  /// Snapshots `registry` into a report. When `result` is given its
  /// sensor/tracker counters are published first (once per result —
  /// publishing is additive).
  [[nodiscard]] static RunReport capture(std::string label,
                                         const core::PipelineResult* result = nullptr,
                                         MetricsRegistry& registry =
                                             MetricsRegistry::global());

  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

  /// Sectioned ASCII tables: counters+gauges, stage timings, histograms.
  [[nodiscard]] std::string to_table() const;
};

}  // namespace synscan::obs
