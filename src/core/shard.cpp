#include "core/shard.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "core/rollup_store.h"
#include "core/sync.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "pcap/pcapng.h"

namespace synscan::core {
namespace {

/// Reads just far enough into a capture to learn its first record
/// timestamp: the header plus one record, in either capture format.
/// Unreadable, empty or unrecognized files report 0 — the plan still
/// includes them, and `run_shards` surfaces the real error.
net::TimeUs peek_first_timestamp(const std::filesystem::path& path) {
  try {
    net::RawFrame frame;
    const auto status = pcap::looks_like_pcapng(path) ? pcap::NgReader::open(path).next(frame)
                                                      : pcap::Reader::open(path).next(frame);
    return status == pcap::ReadStatus::kOk ? frame.timestamp_us : 0;
  } catch (const std::exception&) {
    return 0;
  }
}

/// State shared by the shard workers. Result slots are deliberately
/// outside: each is written by exactly one worker (the one that claimed
/// the index), so slot disjointness provides the exclusion.
struct ShardQueue {
  Mutex mutex;
  std::size_t next SYNSCAN_GUARDED_BY(mutex) = 0;
  std::uint64_t store_hits SYNSCAN_GUARDED_BY(mutex) = 0;
  std::uint64_t store_misses SYNSCAN_GUARDED_BY(mutex) = 0;
  std::uint64_t store_writes SYNSCAN_GUARDED_BY(mutex) = 0;
  std::exception_ptr error SYNSCAN_GUARDED_BY(mutex);
};

}  // namespace

ShardPlan plan_shards(std::span<const std::filesystem::path> captures) {
  ShardPlan plan;
  plan.shards.reserve(captures.size());
  for (const auto& capture : captures) {
    plan.shards.push_back({capture, peek_first_timestamp(capture)});
  }
  std::sort(plan.shards.begin(), plan.shards.end(),
            [](const ShardPlanEntry& a, const ShardPlanEntry& b) {
              if (a.first_timestamp_us != b.first_timestamp_us) {
                return a.first_timestamp_us < b.first_timestamp_us;
              }
              return a.capture.native() < b.capture.native();
            });
  return plan;
}

ShardRunResult run_shards(const ShardPlan& plan,
                          const telescope::Telescope& telescope,
                          const enrich::InternetRegistry& registry,
                          const TrackerConfig& tracker_config,
                          const ShardRunOptions& options) {
  const auto shard_count = plan.shards.size();
  const auto fingerprint =
      analysis_fingerprint(tracker_config, telescope.monitored_count());

  std::vector<std::unique_ptr<CaptureRollup>> rollups(shard_count);
  ShardQueue queue;

  const auto process = [&](std::size_t index) {
    const auto& capture = plan.shards[index].capture;
    const auto identity = options.use_rollup_store ? cache_identity(capture)
                                                   : std::nullopt;
    const auto store_path = rollup_path_for(capture);
    if (identity) {
      if (auto stored = load_rollup(store_path, registry, *identity, fingerprint)) {
        stored->capture = capture;
        rollups[index] = std::make_unique<CaptureRollup>(std::move(*stored));
        const MutexLock lock(queue.mutex);
        ++queue.store_hits;
        return;
      }
    }
    auto rollup = analyze_shard(capture, telescope, registry, tracker_config,
                                options.ingest);
    bool wrote = false;
    if (identity) {
      wrote = save_rollup(store_path, rollup, *identity, fingerprint);
    }
    rollups[index] = std::make_unique<CaptureRollup>(std::move(rollup));
    const MutexLock lock(queue.mutex);
    ++queue.store_misses;
    if (wrote) ++queue.store_writes;
  };

  const auto worker_loop = [&] {
    for (;;) {
      std::size_t index;
      {
        const MutexLock lock(queue.mutex);
        if (queue.error || queue.next >= shard_count) return;
        index = queue.next++;
      }
      try {
        process(index);
      } catch (...) {
        const MutexLock lock(queue.mutex);
        if (!queue.error) queue.error = std::current_exception();
        return;
      }
    }
  };

  auto workers = options.workers;
  if (workers == 0) {
    const auto hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : hw;
  }
  workers = std::min(workers, std::max<std::size_t>(shard_count, 1));

  if (workers <= 1) {
    worker_loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker_loop);
    for (auto& thread : pool) thread.join();
  }

  ShardRunStats stats;
  stats.shards = shard_count;
  {
    // The pool is drained (or never started), so the lock is
    // uncontended; taking it anyway keeps the guarded reads visible.
    const MutexLock lock(queue.mutex);
    if (queue.error) std::rethrow_exception(queue.error);
    stats.store_hits = queue.store_hits;
    stats.store_misses = queue.store_misses;
    stats.store_writes = queue.store_writes;
  }

  ShardRunResult result(registry);
  {
    const obs::ScopedTimer merge_timer("rollup.merge");
    RollupMerger merger(telescope, registry, tracker_config);
    for (auto& rollup : rollups) merger.add(std::move(*rollup));
    result.analysis = merger.finish();
  }
  result.stats = stats;

  if (obs::enabled()) {
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("rollup.shards").add(stats.shards);
    metrics.counter("rollup.store_hits").add(stats.store_hits);
    metrics.counter("rollup.store_misses").add(stats.store_misses);
    metrics.counter("rollup.store_writes").add(stats.store_writes);
    metrics.gauge("rollup.workers").store(static_cast<std::int64_t>(workers));
  }
  return result;
}

}  // namespace synscan::core
