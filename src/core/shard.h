// Shard planning and execution for multi-capture analysis.
//
// A decade of telescope data arrives as many capture files. `plan_shards`
// turns a file set into a deterministic capture-time ordering (by first
// record timestamp, path as tie-break) — the order `RollupMerger`
// requires so adjacent shards' boundary flows line up. `run_shards`
// executes the plan on a worker pool: each shard is served from its
// `.spr` rollup store when the stored rollup is still valid (same
// capture bytes, same analysis configuration) and re-analyzed through
// the batch-native pipeline otherwise, then everything reduces to one
// `AnalyzedCapture` whose report is byte-identical to analyzing the
// concatenated captures serially.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/rollup.h"

namespace synscan::core {

/// One capture in execution order.
struct ShardPlanEntry {
  std::filesystem::path capture;
  /// First record timestamp; 0 when the capture is unreadable or empty
  /// (such shards sort first and fail later, at analysis time, with a
  /// real error instead of a planning error).
  net::TimeUs first_timestamp_us = 0;
};

/// A capture set in capture-time order.
struct ShardPlan {
  std::vector<ShardPlanEntry> shards;
};

/// Orders `captures` by first record timestamp (path as tie-break).
/// Reads only the header and first record of each file, classic pcap or
/// pcapng.
[[nodiscard]] ShardPlan plan_shards(std::span<const std::filesystem::path> captures);

struct ShardRunOptions {
  /// Shard-level parallelism; 0 = one worker per hardware thread
  /// (bounded by the shard count).
  std::size_t workers = 0;
  /// Read and write the sibling `.spr` rollup store.
  bool use_rollup_store = true;
  /// Ingest options for shards that need re-analysis.
  IngestOptions ingest;
};

/// What the run did, for reporting and the `rollup.*` metrics.
struct ShardRunStats {
  std::uint64_t shards = 0;
  std::uint64_t store_hits = 0;    ///< shards served from a valid `.spr`
  std::uint64_t store_misses = 0;  ///< shards re-analyzed
  std::uint64_t store_writes = 0;  ///< rollups (re)persisted this run
};

struct ShardRunResult {
  explicit ShardRunResult(const enrich::InternetRegistry& registry)
      : analysis(registry) {}

  AnalyzedCapture analysis;
  ShardRunStats stats;
};

/// Executes `plan`: analyzes or loads every shard on a worker pool, then
/// folds the rollups in plan order. Throws the first per-shard error
/// (unopenable capture, bad global header) after the pool drains.
[[nodiscard]] ShardRunResult run_shards(const ShardPlan& plan,
                                        const telescope::Telescope& telescope,
                                        const enrich::InternetRegistry& registry,
                                        const TrackerConfig& tracker_config,
                                        const ShardRunOptions& options);

}  // namespace synscan::core
