#include "core/parallel.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/timer.h"

namespace synscan::core {

ParallelAnalyzer::ParallelAnalyzer(const telescope::Telescope& telescope,
                                   std::size_t workers, TrackerConfig tracker_config) {
  if (workers == 0) throw std::invalid_argument("ParallelAnalyzer: workers must be >= 1");
  workers_.reserve(workers);
  slice_rows_.resize(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(telescope, tracker_config));
  }
  if (obs::enabled()) {
    obs_batch_items_ = &obs::MetricsRegistry::global().histogram("parallel.batch_items");
  }
  for (const auto& worker : workers_) {
    worker->thread = std::thread([w = worker.get()] {
      std::vector<Slice> slices;
      for (;;) {
        {
          UniqueLock lock(w->mutex);
          while (w->queue.empty() && !w->done) w->ready.wait(lock);
          if (w->queue.empty() && w->done) return;
          slices.swap(w->queue);
        }
        for (const auto& slice : slices) {
          w->pipeline.feed_probe_rows(*slice.batch, slice.rows);
        }
        slices.clear();  // may drop the last reference to a shared batch
      }
    });
  }
}

ParallelAnalyzer::~ParallelAnalyzer() {
  if (!finished_) {
    // Abandon cleanly: wake workers and join.
    for (const auto& worker : workers_) {
      {
        const MutexLock lock(worker->mutex);
        worker->done = true;
      }
      worker->ready.notify_one();
    }
    for (const auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
}

void ParallelAnalyzer::feed_probes(const telescope::ProbeBatch& batch) {
  const auto n = batch.size();
  if (n == 0) return;
  // Bucket rows by owning worker: campaigns are per-source, so
  // same-source rows must land together; any stable hash works.
  for (std::size_t i = 0; i < n; ++i) {
    const auto source = batch.source[i];
    const auto index = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(source) * 0x9e3779b97f4a7c15ull) >> 32) %
        workers_.size();
    slice_rows_[index].push_back(static_cast<std::uint32_t>(i));
  }
  // One columnar copy shares the batch with every worker (the caller's
  // buffer is recycled after this call returns); the slices alias it.
  const auto shared = std::make_shared<const telescope::ProbeBatch>(batch);
  for (std::size_t index = 0; index < workers_.size(); ++index) {
    auto& rows = slice_rows_[index];
    if (rows.empty()) continue;
    if (obs_batch_items_ != nullptr) obs_batch_items_->observe(rows.size());
    auto& worker = *workers_[index];
    const auto row_count = rows.size();
    {
      const MutexLock lock(worker.mutex);
      worker.queue.push_back({shared, std::move(rows)});
      worker.items += row_count;
      worker.peak_queue = std::max(worker.peak_queue, worker.queue.size());
    }
    worker.ready.notify_one();
    ++slices_;
    rows = {};  // moved-from; make the scratch unambiguously empty
  }
}

void ParallelAnalyzer::absorb_sensor_counters(const telescope::SensorCounters& counters) {
  absorbed_.add(counters);
}

PipelineResult ParallelAnalyzer::finish() {
  if (finished_) throw std::logic_error("ParallelAnalyzer::finish called twice");
  finished_ = true;

  for (const auto& worker : workers_) {
    {
      const MutexLock lock(worker->mutex);
      worker->done = true;
    }
    worker->ready.notify_one();
  }
  for (const auto& worker : workers_) worker->thread.join();

  obs::ScopedTimer merge_timer("parallel.merge");
  // A worker's own last timestamp can trail the stream's: judging expiry
  // against it would keep flows open that the serial run counts as
  // expired. Finish every worker against the stream's last timestamp.
  net::TimeUs stream_end = 0;
  for (const auto& worker : workers_) {
    stream_end = std::max(stream_end, worker->pipeline.max_timestamp());
  }
  PipelineResult merged;
  for (const auto& worker : workers_) {
    auto result = worker->pipeline.finish(stream_end);
    merged.campaigns.insert(merged.campaigns.end(),
                            std::make_move_iterator(result.campaigns.begin()),
                            std::make_move_iterator(result.campaigns.end()));

    merged.sensor.add(result.sensor);

    merged.tracker.probes += result.tracker.probes;
    merged.tracker.campaigns += result.tracker.campaigns;
    merged.tracker.subthreshold_flows += result.tracker.subthreshold_flows;
    merged.tracker.subthreshold_packets += result.tracker.subthreshold_packets;
    merged.tracker.expired_flows += result.tracker.expired_flows;
    merged.tracker.sweeps += result.tracker.sweeps;
    merged.tracker.flow_reuses += result.tracker.flow_reuses;
    merged.tracker.dest_promotions += result.tracker.dest_promotions;
    merged.tracker.port_promotions += result.tracker.port_promotions;
    merged.tracker.table_rehashes += result.tracker.table_rehashes;
    // Worker flow tables are disjoint (per-source sharding), so the sum
    // of per-worker peaks bounds total simultaneous memory.
    merged.tracker.peak_open_flows += result.tracker.peak_open_flows;
  }
  merged.sensor.add(absorbed_);

  // Deterministic order regardless of worker count: by first packet,
  // then source. Campaign ids are re-issued to stay unique and ordered.
  std::sort(merged.campaigns.begin(), merged.campaigns.end(),
            [](const Campaign& a, const Campaign& b) {
              if (a.first_seen_us != b.first_seen_us) {
                return a.first_seen_us < b.first_seen_us;
              }
              return a.source < b.source;
            });
  std::uint64_t next_id = 1;
  for (auto& campaign : merged.campaigns) campaign.id = next_id++;
  merge_timer.stop();

  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("parallel.workers").store(static_cast<std::int64_t>(workers_.size()));
    registry.counter("parallel.slices").add(slices_);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      auto& worker = *workers_[i];
      // The workers are joined, so the lock is uncontended; taking it
      // anyway keeps the guarded reads visible to the analysis.
      std::uint64_t items = 0;
      std::size_t peak_queue = 0;
      {
        const MutexLock lock(worker.mutex);
        items = worker.items;
        peak_queue = worker.peak_queue;
      }
      registry.counter("parallel.items").add(items);
      registry.gauge("parallel.peak_queue")
          .record_max(static_cast<std::int64_t>(peak_queue));
      const auto prefix = "parallel.worker." + std::to_string(i);
      registry.counter(prefix + ".items").add(items);
      registry.gauge(prefix + ".peak_queue")
          .record_max(static_cast<std::int64_t>(peak_queue));
    }
  }
  return merged;
}

}  // namespace synscan::core
