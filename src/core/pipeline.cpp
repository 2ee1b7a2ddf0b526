#include "core/pipeline.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/sync.h"
#include "obs/timer.h"

namespace synscan::core {
namespace {

/// One worker's share of a shared probe batch: the rows (in batch order)
/// whose sources hash to that worker. The `shared_ptr` keeps the columns
/// alive until every worker holding a slice has drained it.
struct Slice {
  std::shared_ptr<const telescope::ProbeBatch> batch;
  std::vector<std::uint32_t> rows;
};

}  // namespace

PortTally PipelineResult::port_tally() const {
  PortTally tally = residual_ports;
  for (const auto& c : campaigns) tally.add(c.source.value(), c.port_packets);
  return tally;
}

struct Pipeline::Shard {
  Shard(const TrackerConfig& config, std::uint64_t monitored_addresses)
      : tracker(config, monitored_addresses,
                [this](Campaign&& campaign) { campaigns.push_back(std::move(campaign)); }) {}

  // The worker thread owns the tracker and its campaigns while it runs;
  // the feeder touches them only without a thread or after join(), a
  // handoff the capability analysis cannot see.
  std::vector<Campaign> campaigns;  // synscan-lint: allow(guarded-by)
  CampaignTracker tracker;          // synscan-lint: allow(guarded-by)
  Mutex mutex;
  CondVar ready;
  std::vector<Slice> queue SYNSCAN_GUARDED_BY(mutex);
  bool done SYNSCAN_GUARDED_BY(mutex) = false;
  std::uint64_t items SYNSCAN_GUARDED_BY(mutex) = 0;     ///< probe rows queued
  std::size_t peak_queue SYNSCAN_GUARDED_BY(mutex) = 0;  ///< deepest pending slice count
  std::thread thread;
};

Pipeline::Pipeline(const telescope::Telescope& telescope, std::size_t workers,
                   TrackerConfig tracker_config) {
  if (workers == 0) throw std::invalid_argument("Pipeline: workers must be >= 1");
  shards_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    shards_.push_back(std::make_unique<Shard>(tracker_config, telescope.monitored_count()));
  }
  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    obs_probes_ = &registry.counter("pipeline.probes");
    obs_batches_ = &registry.counter("pipeline.batches");
    if (workers > 1) obs_slice_rows_ = &registry.histogram("parallel.batch_items");
  }
  if (workers == 1) return;
  slice_rows_.resize(workers);
  for (const auto& shard : shards_) {
    shard->thread = std::thread([s = shard.get()] {
      std::vector<Slice> slices;
      for (;;) {
        {
          UniqueLock lock(s->mutex);
          while (s->queue.empty() && !s->done) s->ready.wait(lock);
          if (s->queue.empty()) return;  // done and drained
          slices.swap(s->queue);
        }
        for (const auto& slice : slices) s->tracker.feed_batch(*slice.batch, slice.rows);
        slices.clear();  // may drop the last reference to a shared batch
      }
    });
  }
}

Pipeline::~Pipeline() { join_workers(); }

void Pipeline::join_workers() {
  for (const auto& shard : shards_) {
    if (!shard->thread.joinable()) continue;
    {
      const MutexLock lock(shard->mutex);
      shard->done = true;
    }
    shard->ready.notify_one();
  }
  for (const auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void Pipeline::add_observer(ProbeObserver& observer) { observers_.push_back(&observer); }

void Pipeline::start(net::TimeUs first_timestamp) {
  started_ = true;
  first_timestamp_ = first_timestamp;
  // Written before the first dispatch, whose queue lock publishes it to
  // the worker threads.
  for (const auto& shard : shards_) shard->tracker.anchor(first_timestamp);
}

void Pipeline::feed_probes(const telescope::ProbeBatch& batch) {
  const auto n = batch.size();
  if (n == 0) return;
  if (!started_) start(batch.timestamp_us.front());
  if (obs_probes_ != nullptr) obs_probes_->add(n);
  if (obs_batches_ != nullptr) obs_batches_->add();
  // Ingest batches have a fixed row budget, so this settles at once.
  for (auto i = static_cast<std::uint32_t>(identity_rows_.size()); i < n; ++i) {
    identity_rows_.push_back(i);
  }
  const std::span<const std::uint32_t> rows(identity_rows_.data(), n);
  const bool sharded = shards_.size() > 1;
  if (sharded) dispatch(batch);  // the workers track while the observers run
  for (auto* observer : observers_) observer->observe_batch(batch, rows);
  if (!sharded) shards_.front()->tracker.feed_batch(batch, rows);
}

void Pipeline::dispatch(const telescope::ProbeBatch& batch) {
  // Campaigns are per-source, so same-source rows must land on the same
  // worker; any stable hash works.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto index = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(batch.source[i]) * 0x9e3779b97f4a7c15ull) >> 32) %
        shards_.size();
    slice_rows_[index].push_back(static_cast<std::uint32_t>(i));
  }
  // One columnar copy shares the batch with every worker (the caller's
  // buffer is recycled after this call returns); the slices alias it.
  const auto shared = std::make_shared<const telescope::ProbeBatch>(batch);
  for (std::size_t index = 0; index < shards_.size(); ++index) {
    auto& rows = slice_rows_[index];
    if (rows.empty()) continue;
    if (obs_slice_rows_ != nullptr) obs_slice_rows_->observe(rows.size());
    auto& shard = *shards_[index];
    const auto row_count = rows.size();
    {
      const MutexLock lock(shard.mutex);
      shard.queue.push_back({shared, std::move(rows)});
      shard.items += row_count;
      shard.peak_queue = std::max(shard.peak_queue, shard.queue.size());
    }
    shard.ready.notify_one();
    ++slices_;
    rows = {};  // moved-from; make the scratch unambiguously empty
  }
}

void Pipeline::absorb_sensor_counters(const telescope::SensorCounters& counters) {
  absorbed_.add(counters);
}

PipelineResult Pipeline::finish() {
  if (finished_) throw std::logic_error("Pipeline::finish called twice");
  finished_ = true;
  // The span covers the feeder's wait for its trackers to drain, too.
  const obs::ScopedTimer finish_timer("pipeline.finish");
  join_workers();

  // A worker's own last timestamp can trail the stream's: judging expiry
  // against it would keep flows open that a one-worker run counts as
  // expired.
  const auto stream_end = max_timestamp();
  PipelineResult result;
  result.sensor = absorbed_;
  for (const auto& shard : shards_) {
    shard->tracker.finish(stream_end);
    result.tracker.add(shard->tracker.counters());
    // Workers track disjoint sources, so each residual appends its own.
    result.residual_ports.merge(shard->tracker.take_residual_ports());
    result.campaigns.insert(result.campaigns.end(),
                            std::make_move_iterator(shard->campaigns.begin()),
                            std::make_move_iterator(shard->campaigns.end()));
  }
  sort_canonical(result.campaigns);

  if (shards_.size() > 1 && obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("parallel.workers").store(static_cast<std::int64_t>(shards_.size()));
    registry.counter("parallel.slices").add(slices_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      auto& shard = *shards_[i];
      // Joined workers leave the lock uncontended; taking it keeps the
      // guarded reads visible to the analysis.
      const MutexLock lock(shard.mutex);
      const auto items = shard.items;
      const auto peak_queue = static_cast<std::int64_t>(shard.peak_queue);
      const auto prefix = "parallel.worker." + std::to_string(i);
      registry.counter("parallel.items").add(items);
      registry.gauge("parallel.peak_queue").record_max(peak_queue);
      registry.counter(prefix + ".items").add(items);
      registry.gauge(prefix + ".peak_queue").record_max(peak_queue);
    }
  }
  return result;
}

std::vector<FlowSegment> Pipeline::take_carried_segments() {
  std::vector<FlowSegment> segments;
  for (const auto& shard : shards_) {
    auto taken = shard->tracker.take_boundary_segments();
    segments.insert(segments.end(), std::make_move_iterator(taken.begin()),
                    std::make_move_iterator(taken.end()));
  }
  return segments;
}

net::TimeUs Pipeline::max_timestamp() const noexcept {
  net::TimeUs latest = 0;
  for (const auto& shard : shards_) latest = std::max(latest, shard->tracker.now());
  return latest;
}

}  // namespace synscan::core
