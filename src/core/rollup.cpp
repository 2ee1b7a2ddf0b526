#include "core/rollup.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/pipeline.h"
#include "obs/timer.h"

namespace synscan::core {
namespace {

/// Joins `later` (a head segment) onto `earlier` (the previous open tail
/// of the same source), splicing the fingerprint evidence across the
/// seam: the result is the flow the whole-capture tracker would hold.
void join_segments(FlowSegment& earlier, const FlowSegment& later) {
  earlier.tail = later.tail;
  earlier.last_seen_us = std::max(earlier.last_seen_us, later.last_seen_us);
  earlier.packets += later.packets;

  std::vector<std::uint32_t> destinations;
  destinations.reserve(earlier.destinations.size() + later.destinations.size());
  std::set_union(earlier.destinations.begin(), earlier.destinations.end(),
                 later.destinations.begin(), later.destinations.end(),
                 std::back_inserter(destinations));
  earlier.destinations = std::move(destinations);

  earlier.port_packets.reserve(earlier.port_packets.size() + later.port_packets.size());
  for (const auto [port, packets] : later.port_packets) {
    earlier.port_packets.add(port, packets);
  }
  earlier.evidence.append(later.evidence);
}

}  // namespace

CaptureRollup analyze_shard(const std::filesystem::path& path,
                            const telescope::Telescope& telescope,
                            const enrich::InternetRegistry& /*registry*/,
                            const TrackerConfig& tracker_config,
                            const IngestOptions& options) {
  CaptureRollup rollup;
  rollup.capture = path;

  TrackerConfig config = tracker_config;
  config.carry_boundary_flows = true;
  Pipeline pipeline(telescope, 1, config);

  {
    const obs::ScopedTimer ingest("rollup.analyze_shard");
    const auto ingested = ingest_capture(
        path, telescope, options,
        [&](const telescope::ProbeBatch& batch) { pipeline.feed_probes(batch); });
    pipeline.absorb_sensor_counters(ingested.sensor);
    rollup.frames = ingested.frames;
    rollup.final_status = ingested.status;
    rollup.from_cache = ingested.from_cache;
  }

  auto result = pipeline.finish();
  rollup.sensor = result.sensor;
  rollup.tracker = result.tracker;
  rollup.campaigns = std::move(result.campaigns);
  rollup.residual_ports = std::move(result.residual_ports);
  rollup.segments = pipeline.take_carried_segments();
  rollup.first_probe_us = pipeline.first_timestamp();
  rollup.max_timestamp_us = pipeline.max_timestamp();
  // Export order depends on sweep timing and flow-table layout; the
  // rollup must not (it is checksummed on disk and folded in order).
  std::sort(rollup.segments.begin(), rollup.segments.end(),
            [](const FlowSegment& a, const FlowSegment& b) {
              if (a.source.value() != b.source.value()) {
                return a.source.value() < b.source.value();
              }
              return a.first_seen_us < b.first_seen_us;
            });
  return rollup;
}

RollupMerger::RollupMerger(const telescope::Telescope& telescope,
                           const enrich::InternetRegistry& registry,
                           const TrackerConfig& tracker_config)
    : config_(tracker_config),
      model_(telescope.monitored_count()),
      merged_(registry) {}

void RollupMerger::finalize_segment(FlowSegment&& segment, bool gap_closed) {
  auto& counters = merged_.result.tracker;
  if (gap_closed || now_ - segment.last_seen_us > config_.expiry) {
    ++counters.expired_flows;
  }
  auto campaign = qualify(config_, model_, segment.source, segment.first_seen_us,
                          segment.last_seen_us, segment.packets,
                          segment.destinations.size(), counters);
  if (!campaign) {
    merged_.result.residual_ports.add(segment.source.value(),
                                      std::move(segment.port_packets));
    return;
  }
  campaign->port_packets = std::move(segment.port_packets);
  campaign->tool = segment.evidence.verdict(config_.classifier);
  merged_.result.campaigns.push_back(std::move(*campaign));
}

void RollupMerger::add(CaptureRollup&& shard) {
  if (finished_) throw std::logic_error("RollupMerger::add after finish");
  if (shard.tracker.probes > 0) {
    if (merged_.result.tracker.probes > 0 && shard.first_probe_us < now_) {
      throw std::invalid_argument(
          "shards overlap in time: " + shard.capture.string() + " starts at " +
          std::to_string(shard.first_probe_us) + " us, before the last probe of " +
          last_capture_.string() + " at " + std::to_string(now_) + " us");
    }
    last_capture_ = shard.capture;
    now_ = std::max(now_, shard.max_timestamp_us);
  }

  merged_.frames += shard.frames;
  if (merged_.final_status == pcap::ReadStatus::kEndOfFile) {
    merged_.final_status = shard.final_status;  // first defect wins
  }
  merged_.from_cache =
      any_shard_ ? (merged_.from_cache && shard.from_cache) : shard.from_cache;

  merged_.result.sensor.add(shard.sensor);
  merged_.result.tracker.add(shard.tracker);

  merged_.result.campaigns.insert(merged_.result.campaigns.end(),
                                  std::make_move_iterator(shard.campaigns.begin()),
                                  std::make_move_iterator(shard.campaigns.end()));
  merged_.result.residual_ports.merge(std::move(shard.residual_ports));
  any_shard_ = true;

  for (auto& segment : shard.segments) {
    auto& open = open_tails_[segment.source.value()];
    if (open && segment.head &&
        segment.first_seen_us - open->last_seen_us <= config_.expiry) {
      // The gap fits inside the expiry: the whole-capture tracker
      // would have kept this flow alive across the boundary.
      join_segments(*open, segment);
    } else {
      // An open tail is gap-closed: its source came back later than
      // `expiry` after it (segments that are not heads start beyond the
      // head horizon).
      if (open) finalize_segment(std::move(*open), /*gap_closed=*/true);
      open = std::move(segment);
    }
    if (!open->tail) {
      // Followed inside its own shard by same-source traffic after an
      // expiry gap, so the whole-capture tracker gap-closed it too.
      finalize_segment(std::move(*open), /*gap_closed=*/true);
      open.reset();
    }
  }
}

AnalyzedCapture RollupMerger::finish() {
  if (finished_) throw std::logic_error("RollupMerger::finish called twice");
  finished_ = true;

  const obs::ScopedTimer merge_timer("rollup.finish");
  open_tails_.for_each([&](std::uint32_t, std::optional<FlowSegment>& open) {
    if (open) finalize_segment(std::move(*open), /*gap_closed=*/false);
  });

  sort_canonical(merged_.result.campaigns);
  if (!any_shard_) merged_.from_cache = false;
  return std::move(merged_);
}

}  // namespace synscan::core
