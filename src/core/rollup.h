// Mergeable per-shard analysis rollups (the decade-scale layer).
//
// A ten-year capture set is analyzed once, shard by shard, and every
// later question is answered by *merging summaries* instead of touching
// probes again. The unit is a `CaptureRollup`: everything one capture's
// analysis produced — counters, interior campaigns, the residual port
// tally — plus the tracker's boundary `FlowSegment`s (core/tracker.h),
// which carry enough state (full destination set, and the flow's own
// `PortPacketMap` and `ToolEvidence`) that flows spanning shard
// boundaries can be re-joined exactly.
//
// Shards must not overlap in time: each starts at or after the last
// probe of every shard before it. A flow then crosses a cut only if it
// comes within the tracker expiry of it, so a shard exports as heads
// only flows starting within `expiry` of its first probe, and as tails
// only flows last seen within `expiry` of its last probe (or that are
// heads too); every other flow closes inside the shard.
//
// `RollupMerger` left-folds rollups in capture-time order: a shard's
// head segment joins the source's open tail when the gap is within the
// tracker expiry, exactly as the whole-capture tracker would have kept
// the flow alive; any other next segment of that source finalizes the
// tail as gap-closed, and everything else finalizes through `qualify`
// (core/tracker.h), the §3.4 rule the tracker applies. A finalized
// segment that qualifies becomes a campaign with its map; one that does
// not moves its map into the merged residual tally, as the tracker moves
// a sub-threshold flow's. The result is an `AnalyzedCapture` whose JSON
// report is byte-identical to analyzing the concatenated captures in one
// pass, and whose `port_tally()` holds the same counts (pinned by
// tests/integration/rollup_differential_test.cpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "core/analysis_session.h"
#include "core/flat_map.h"
#include "core/ingest.h"
#include "core/tracker.h"
#include "enrich/registry.h"
#include "pcap/pcap.h"
#include "telescope/telescope.h"

namespace synscan::core {

/// One capture's mergeable analysis summary. Produced by `analyze_shard`
/// (or loaded from a `.spr` rollup file, core/rollup_store.h); consumed
/// by `RollupMerger` in capture-time order.
struct CaptureRollup {
  std::filesystem::path capture;  ///< source capture path (diagnostics)
  std::uint64_t frames = 0;
  pcap::ReadStatus final_status = pcap::ReadStatus::kEndOfFile;
  /// The result came from a cache: the probes from a `.spc`, or the
  /// whole rollup from a `.spr` (core/rollup_store.h).
  bool from_cache = false;
  /// The shard's first probe (0 without probes): its heads start
  /// within `expiry` of it, and no earlier shard may end after it.
  net::TimeUs first_probe_us = 0;
  net::TimeUs max_timestamp_us = 0;  ///< the shard tracker's final "now"
  telescope::SensorCounters sensor;
  /// Interior tracker counters only: boundary segments are not counted
  /// until the merger decides their fate.
  TrackerCounters tracker;
  /// Campaigns that closed entirely inside the shard, canonical order.
  std::vector<Campaign> campaigns;
  /// Boundary flows — heads within `expiry` of `first_probe_us`, tails
  /// within `expiry` of `max_timestamp_us` — sorted by (source,
  /// first_seen) for deterministic `.spr` bytes and merge order.
  std::vector<FlowSegment> segments;
  /// Packets per (source, port) of the flows that closed inside the
  /// shard below the campaign threshold. The campaigns and segments
  /// hold every other count, so the shard's full tally is this residual
  /// plus their maps, and no count is stored twice. It names no scanner
  /// type or country, so a rollup does not depend on the registry.
  PortTally residual_ports;
};

/// Analyzes one capture as a shard: the serial batch-native pipeline,
/// tracker in carry mode, no observer. The registry is not read (see
/// `CaptureRollup::residual_ports`); the benchmark harness still passes
/// it, so it stays until ROADMAP item 9.
[[nodiscard]] CaptureRollup analyze_shard(const std::filesystem::path& path,
                                          const telescope::Telescope& telescope,
                                          const enrich::InternetRegistry& registry,
                                          const TrackerConfig& tracker_config,
                                          const IngestOptions& options);

/// Left-fold reducer over shard rollups. `add` shards in capture-time
/// order (ShardPlan order); `finish` closes the remaining open tails and
/// returns the merged analysis. One-shot: use a fresh merger per query.
/// Both boundary horizons rest on the shards not overlapping in time,
/// so `add` refuses a shard that starts before an earlier one ends.
class RollupMerger {
 public:
  /// `tracker_config` must match the configuration the shards were
  /// analyzed with — the expiry drives the boundary-join decision and
  /// the thresholds drive qualification.
  RollupMerger(const telescope::Telescope& telescope,
               const enrich::InternetRegistry& registry,
               const TrackerConfig& tracker_config);

  /// Folds the next shard in. Shards must arrive in capture-time order;
  /// boundary segments of adjacent shards are joined here. Throws
  /// `std::invalid_argument`, naming both captures, when the shard's
  /// first probe precedes the last probe of an earlier shard.
  void add(CaptureRollup&& shard);

  /// Closes all still-open tail flows (stream end across the whole
  /// capture set) and returns the merged analysis.
  [[nodiscard]] AnalyzedCapture finish();

 private:
  /// Judges a (possibly joined) boundary segment by `qualify`: a
  /// campaign keeps its map, a sub-threshold flow's joins the residual.
  /// `gap_closed` marks segments that were followed by more same-source
  /// traffic after an expiry gap (always expired); stream-end closes are
  /// expired only when the final "now" is more than `expiry` past the
  /// segment's last packet.
  void finalize_segment(FlowSegment&& segment, bool gap_closed);

  TrackerConfig config_;
  stats::TelescopeModel model_;
  AnalyzedCapture merged_;
  /// The open tail flow between shards of every source seen in a
  /// segment; empty once the tail was joined or finalized.
  FlatHashMap<std::uint32_t, std::optional<FlowSegment>> open_tails_;
  net::TimeUs now_ = 0;  ///< max timestamp over all folded shards
  std::filesystem::path last_capture_;  ///< the shard whose last probe is `now_`
  bool any_shard_ = false;
  bool finished_ = false;
};

}  // namespace synscan::core
