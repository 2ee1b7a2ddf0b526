// The analysis pipeline: classified probe batches -> campaign tracker
// and streaming observers -> finalized campaigns.
//
// Probes arrive already sensed. Every producer classifies frames in
// batches first — `core::ingest_capture` for capture files,
// `core::FrameBatcher` for frame-at-a-time sources such as the traffic
// generator — and hands its sensor counters over through
// `absorb_sensor_counters`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/observers.h"
#include "core/tracker.h"
#include "obs/metrics.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::core {

/// Everything a pipeline run produces.
struct PipelineResult {
  std::vector<Campaign> campaigns;
  telescope::SensorCounters sensor;
  TrackerCounters tracker;
};

/// Single-pass analysis driver. Attach observers, feed probe batches,
/// then call `finish()` exactly once.
class Pipeline {
 public:
  /// The telescope sizes the tracker's extrapolation model.
  Pipeline(const telescope::Telescope& telescope, TrackerConfig tracker_config = {});

  /// Registers a streaming observer; not owned, must outlive the run.
  void add_observer(ProbeObserver& observer);

  /// Feeds one probe through `on_probe` and the tracker: the per-probe
  /// reference the batched path is tested against.
  void feed_probe(const telescope::ScanProbe& probe);

  /// Feeds a whole batch of probes — the one production entry point.
  /// Observers see the batch through `observe_batch`; the tracker feeds
  /// row by row (its state machine is inherently per-probe).
  void feed_probes(const telescope::ProbeBatch& batch);

  /// Feeds a slice of a batch: the rows listed in `rows`, in order. This
  /// is the parallel path — workers receive index slices into a shared
  /// batch instead of per-probe copies. The batch (and `rows`) are only
  /// borrowed for the duration of the call.
  void feed_probe_rows(const telescope::ProbeBatch& batch,
                       std::span<const std::uint32_t> rows);

  /// Folds the producer's sensor counters into `finish()`'s result.
  void absorb_sensor_counters(const telescope::SensorCounters& counters);

  /// Flushes the tracker and returns all results. Campaigns come back in
  /// canonical order — by first packet, then source, ids re-issued 1..N —
  /// the same order `ParallelAnalyzer::finish()` produces, so reports are
  /// identical whatever the worker count. A pipeline that saw only part
  /// of the stream (one `ParallelAnalyzer` worker) passes the stream's
  /// last timestamp as `stream_end`, so flows that went quiet before it
  /// count as expired exactly as in a serial run.
  [[nodiscard]] PipelineResult finish(net::TimeUs stream_end = 0);

  /// Carry mode only (TrackerConfig::carry_boundary_flows): moves out the
  /// boundary flow segments the tracker exported. Call after `finish()`.
  [[nodiscard]] std::vector<FlowSegment> take_carried_segments() {
    return tracker_.take_boundary_segments();
  }

  /// Maximum probe timestamp the tracker observed (the stream's "now").
  [[nodiscard]] net::TimeUs max_timestamp() const noexcept { return tracker_.now(); }

 private:
  telescope::SensorCounters absorbed_;  ///< the producers' sensor counters
  std::vector<Campaign> campaigns_;
  CampaignTracker tracker_;
  std::vector<ProbeObserver*> observers_;
  /// Identity row indices [0, n) for full-batch feeds; grown on demand
  /// and reused so `feed_probes` allocates only when batches grow.
  std::vector<std::uint32_t> identity_rows_;
  // Resolved once at construction iff obs is enabled; null pointers keep
  // the per-batch cost at one predictable branch when it is off.
  obs::Counter* obs_probes_ = nullptr;
  obs::Counter* obs_batches_ = nullptr;
};

}  // namespace synscan::core
