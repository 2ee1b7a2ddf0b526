// The analysis pipeline: classified probe batches -> campaign tracker
// and streaming observers -> finalized campaigns and the sub-threshold
// residual of the port tally.
//
// Probes arrive already sensed. Every producer classifies frames in
// batches first — `core::ingest_capture` for capture files,
// `core::FrameBatcher` for frame-at-a-time sources such as the traffic
// generator — and hands its sensor counters over through
// `absorb_sensor_counters`.
//
// A campaign is one source's probe sequence (§3.4), so tracking splits
// by source without changing any result. With one worker the tracker runs
// on the feeding thread. With more, each worker thread tracks the sources
// that hash to it, reading row-index slices of one shared copy of each
// batch; observers stay on the feeding thread and run after the
// dispatch, overlapping the workers. `finish()` merges into the canonical
// campaign order, so results are byte-identical at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/observers.h"
#include "core/port_tally.h"
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
  /// Packets per (source, port) of the flows that closed below the
  /// campaign threshold: the tally's part no campaign holds. Every
  /// count is stored once, here or in a campaign's `port_packets`.
  PortTally residual_ports;

  /// The full port tally (Table 1, Table 2, Fig. 5, §4.2): the residual,
  /// then every campaign's map in canonical order. Composed on each
  /// call, so a reader builds it once and derives its views from it. In
  /// carry mode the boundary segments' maps are not in it.
  [[nodiscard]] PortTally port_tally() const;
};

/// Single-pass analysis driver. Attach observers, feed probe batches,
/// then call `finish()` exactly once.
class Pipeline {
 public:
  /// The telescope sizes the tracker's extrapolation model. `workers`
  /// (>= 1) trackers split the sources; more than one run on threads.
  explicit Pipeline(const telescope::Telescope& telescope, std::size_t workers = 1,
                    TrackerConfig tracker_config = {});

  /// Joins the worker threads of a pipeline that was never finished.
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Registers a streaming observer; not owned, must outlive the run.
  void add_observer(ProbeObserver& observer);

  /// Feeds a whole batch of probes — the one way probes enter.
  /// Observers see the batch through `observe_batch`; trackers feed row
  /// by row (their state machine is inherently per-probe). Call from one
  /// thread only.
  void feed_probes(const telescope::ProbeBatch& batch);

  /// Folds the producer's sensor counters into `finish()`'s result.
  void absorb_sensor_counters(const telescope::SensorCounters& counters);

  /// Joins the workers, flushes every tracker against the stream's last
  /// timestamp and returns all results, campaigns in canonical order
  /// (`sort_canonical`). Publishes the `parallel.*` metrics when obs is
  /// on and there are several workers. A second call throws
  /// `std::logic_error`.
  [[nodiscard]] PipelineResult finish();

  /// Carry mode only (TrackerConfig::carry_boundary_flows): moves out the
  /// boundary flow segments the trackers exported. Call after `finish()`.
  [[nodiscard]] std::vector<FlowSegment> take_carried_segments();

  /// The stream's last probe timestamp (its "now"). Call after `finish()`.
  [[nodiscard]] net::TimeUs max_timestamp() const noexcept;

  /// The stream's first probe timestamp (0 when no probe arrived):
  /// where carry mode's head horizon starts. Every tracker is anchored
  /// to it before its first probe (`CampaignTracker::anchor`).
  [[nodiscard]] net::TimeUs first_timestamp() const noexcept { return first_timestamp_; }

 private:
  /// One worker: a tracker, its campaigns, and (with several workers)
  /// the thread and slice queue that drive it.
  struct Shard;

  /// Records the stream's first probe time and anchors every tracker
  /// to it; called once, before the first probe reaches any tracker.
  void start(net::TimeUs first_timestamp);
  /// Queues each worker the slice of a shared copy of `batch` holding
  /// the rows of its sources.
  void dispatch(const telescope::ProbeBatch& batch);
  /// Tells the worker threads to drain their queues and joins them.
  void join_workers();

  std::vector<std::unique_ptr<Shard>> shards_;
  telescope::SensorCounters absorbed_;  ///< the producers' sensor counters
  std::vector<ProbeObserver*> observers_;
  /// Identity row indices [0, n) for full-batch feeds, grown on demand.
  std::vector<std::uint32_t> identity_rows_;
  /// Per-worker row-index scratch, refilled for every dispatched batch.
  std::vector<std::vector<std::uint32_t>> slice_rows_;
  std::uint64_t slices_ = 0;  ///< probe slices queued across workers
  net::TimeUs first_timestamp_ = 0;
  bool started_ = false;  ///< a probe arrived; the trackers are anchored
  bool finished_ = false;
  // Resolved once at construction iff obs is enabled; null pointers keep
  // the per-batch cost at one predictable branch when it is off.
  obs::Counter* obs_probes_ = nullptr;
  obs::Counter* obs_batches_ = nullptr;
  obs::Histogram* obs_slice_rows_ = nullptr;
};

}  // namespace synscan::core
