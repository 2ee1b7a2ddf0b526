#include "core/shard.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <system_error>
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
/// timestamp: the header plus one record, in either capture format, off
/// one mapping. Unreadable, empty or unrecognized files report 0 — the
/// plan still includes them, and `run_shards` surfaces the real error.
/// Anything but a regular file reports 0 unread: a pipe hands its bytes
/// to one reader only, and that reader must be the analysis.
net::TimeUs peek_first_timestamp(const std::filesystem::path& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return 0;
  try {
    const auto file = pcap::MappedFile::open(path);
    net::RawFrame frame;
    const auto status = pcap::looks_like_pcapng(file.bytes())
                            ? pcap::NgReader::over(file.bytes()).next(frame)
                            : pcap::Reader::over(file.bytes()).next(frame);
    return status == pcap::ReadStatus::kOk ? frame.timestamp_us : 0;
  } catch (const std::exception&) {
    return 0;
  }
}

/// Refuses a plan that names one capture twice, before any shard is
/// loaded or analyzed. The plan is sorted by first record time, so a
/// repeated capture sits among the entries that share its twin's time;
/// only those are compared, and distinct captures cost no `stat`. A path
/// that cannot be stat'ed compares unequal and fails at analysis.
void refuse_repeated_captures(const ShardPlan& plan) {
  const auto& shards = plan.shards;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    for (std::size_t j = i + 1; j < shards.size() &&
                                shards[j].first_timestamp_us == shards[i].first_timestamp_us;
         ++j) {
      std::error_code ec;
      if (std::filesystem::equivalent(shards[i].capture, shards[j].capture, ec)) {
        throw std::invalid_argument("shards overlap in time: " + shards[i].capture.string() +
                                    " and " + shards[j].capture.string() +
                                    " are the same capture");
      }
    }
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
  refuse_repeated_captures(plan);
  const auto shard_count = plan.shards.size();
  const auto fingerprint =
      analysis_fingerprint(tracker_config, telescope.monitored_count());

  auto workers = options.workers;
  if (workers == 0) {
    const auto hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : hw;
  }
  // Workers beyond one per shard track inside the shards: a lone
  // capture tracks on all of them, and a decade of shards on one each.
  const auto slots = std::max<std::size_t>(shard_count, 1);
  const auto trackers = std::max<std::size_t>(1, workers / slots);
  workers = std::min(workers, slots);

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
                                options.ingest, trackers);
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
