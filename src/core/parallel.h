// Multi-threaded analysis driver.
//
// A telescope receives a terabyte of traffic per month (§3.2); replaying
// archives at that volume wants more than one core. Campaign tracking is
// embarrassingly parallel across *sources* — a campaign never spans two
// source addresses — so the driver dispatches work to a worker chosen by
// source-address hash. Probes arrive as classified batches: the feeder
// copies each `ProbeBatch` once into a shared columnar buffer and hands
// every worker a *slice*, a vector of row indices into the shared
// columns. No `ScanProbe` is ever materialized or copied on the feeder;
// workers run the tracker straight off the columns via
// `Pipeline::feed_probe_rows`. `finish()` joins the workers and merges
// campaigns and counters into one result, ordered deterministically.
//
// Streaming observers attached on the feeder thread consume the same
// batches in file order (see `core::analyze_capture`); per-worker
// pipelines carry no observers of their own. The merged report is
// byte-identical to the serial `Pipeline`'s at any worker count
// (covered by tests).
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/sync.h"
#include "obs/metrics.h"
#include "telescope/telescope.h"

namespace synscan::core {

class ParallelAnalyzer {
 public:
  /// `workers` must be >= 1.
  ParallelAnalyzer(const telescope::Telescope& telescope, std::size_t workers,
                   TrackerConfig tracker_config = {});

  ~ParallelAnalyzer();
  ParallelAnalyzer(const ParallelAnalyzer&) = delete;
  ParallelAnalyzer& operator=(const ParallelAnalyzer&) = delete;

  /// Dispatches a batch of classified probes. The batch's columns are
  /// copied once into a shared buffer; workers receive row-index slices
  /// into it. Call from one thread only.
  void feed_probes(const telescope::ProbeBatch& batch);

  /// Folds the producer's sensor counters into `finish()`'s merged
  /// result (workers see probes, never frames).
  void absorb_sensor_counters(const telescope::SensorCounters& counters);

  /// Joins the workers and merges everything. Call once. Every worker
  /// finishes against the stream's last timestamp (the latest any worker
  /// saw), so `expired_flows` matches the serial pipeline. When
  /// observability is on, publishes `parallel.*` metrics (per-worker
  /// peak queue depth and row counts, slice-size distribution, merge
  /// time) to the global registry.
  [[nodiscard]] PipelineResult finish();

  [[nodiscard]] std::size_t workers() const noexcept { return workers_.size(); }

 private:
  /// One worker's share of a shared probe batch: the rows (in batch
  /// order) whose sources hash to that worker. The `shared_ptr` keeps
  /// the columns alive until every worker holding a slice has drained it.
  struct Slice {
    std::shared_ptr<const telescope::ProbeBatch> batch;
    std::vector<std::uint32_t> rows;
  };

  struct Worker {
    explicit Worker(const telescope::Telescope& telescope, TrackerConfig config)
        : pipeline(telescope, config) {}

    /// Owned by the worker thread while it runs; the feeder reads it
    /// only after join() (`finish()`). That handoff is the join itself,
    /// which the capability analysis cannot see.
    /// synscan-lint: allow(guarded-by)
    Pipeline pipeline;
    Mutex mutex;
    CondVar ready;
    std::vector<Slice> queue SYNSCAN_GUARDED_BY(mutex);
    bool done SYNSCAN_GUARDED_BY(mutex) = false;
    std::thread thread;
    // Feeder-side stats, updated under `mutex` on enqueue; cheap enough
    // to keep unconditionally.
    std::uint64_t items SYNSCAN_GUARDED_BY(mutex) = 0;  ///< probe rows
    /// Deepest pending slice count observed.
    std::size_t peak_queue SYNSCAN_GUARDED_BY(mutex) = 0;
  };

  std::vector<std::unique_ptr<Worker>> workers_;
  /// Per-worker row-index scratch, refilled for every shared batch.
  std::vector<std::vector<std::uint32_t>> slice_rows_;
  telescope::SensorCounters absorbed_;  ///< the producer's sensor counters
  std::uint64_t slices_ = 0;  ///< probe slices enqueued across workers
  bool finished_ = false;
  /// Slice-size distribution; resolved at construction iff obs is on.
  obs::Histogram* obs_batch_items_ = nullptr;
};

}  // namespace synscan::core
