#include "core/rollup.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/pipeline.h"
#include "obs/timer.h"

namespace synscan::core {
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
  pipeline.add_observer(rollup.ports);

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
  rollup.segments = pipeline.take_carried_segments();
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

FlowSegment RollupMerger::join_segments(FlowSegment&& earlier,
                                        FlowSegment&& later) const {
  FlowSegment joined = std::move(earlier);
  joined.tail = later.tail;
  joined.last_seen_us = std::max(joined.last_seen_us, later.last_seen_us);
  joined.packets += later.packets;

  std::vector<std::uint32_t> destinations;
  destinations.reserve(joined.destinations.size() + later.destinations.size());
  std::set_union(joined.destinations.begin(), joined.destinations.end(),
                 later.destinations.begin(), later.destinations.end(),
                 std::back_inserter(destinations));
  joined.destinations = std::move(destinations);

  // Both port lists are sorted; merge them summing counts of shared ports.
  std::vector<std::pair<std::uint16_t, std::uint64_t>> ports;
  ports.reserve(joined.port_packets.size() + later.port_packets.size());
  auto a = joined.port_packets.begin();
  auto b = later.port_packets.begin();
  while (a != joined.port_packets.end() && b != later.port_packets.end()) {
    if (a->first < b->first) {
      ports.push_back(*a++);
    } else if (b->first < a->first) {
      ports.push_back(*b++);
    } else {
      ports.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  ports.insert(ports.end(), a, joined.port_packets.end());
  ports.insert(ports.end(), b, later.port_packets.end());
  joined.port_packets = std::move(ports);

  // Splice the fingerprint accumulators: counters add and the pairwise
  // fingerprints are evaluated once across the seam, bit-identical to
  // having observed the concatenated probe run in one tracker.
  auto evidence = fingerprint::ToolEvidence::from_state(config_.classifier,
                                                        joined.evidence);
  evidence.append(
      fingerprint::ToolEvidence::from_state(config_.classifier, later.evidence));
  joined.evidence = evidence.state();
  return joined;
}

void RollupMerger::finalize_segment(FlowSegment&& segment, bool gap_closed) {
  auto& counters = merged_.result.tracker;
  if (gap_closed || now_ - segment.last_seen_us > config_.expiry) {
    ++counters.expired_flows;
  }
  auto campaign = qualify(config_, model_, segment.source, segment.first_seen_us,
                          segment.last_seen_us, segment.packets,
                          segment.destinations.size(), counters);
  if (!campaign) return;
  for (const auto& [port, packets] : segment.port_packets) {
    campaign->port_packets.add(port, packets);
  }
  campaign->tool =
      fingerprint::ToolEvidence::from_state(config_.classifier, segment.evidence).verdict();
  merged_.result.campaigns.push_back(std::move(*campaign));
}

void RollupMerger::add(CaptureRollup&& shard) {
  if (finished_) throw std::logic_error("RollupMerger::add after finish");

  merged_.frames += shard.frames;
  if (merged_.final_status == pcap::ReadStatus::kEndOfFile) {
    merged_.final_status = shard.final_status;  // first defect wins
  }
  merged_.from_cache =
      any_shard_ ? (merged_.from_cache && shard.from_cache) : shard.from_cache;
  any_shard_ = true;
  now_ = std::max(now_, shard.max_timestamp_us);

  merged_.result.sensor.add(shard.sensor);
  merged_.result.tracker.add(shard.tracker);

  merged_.result.campaigns.insert(merged_.result.campaigns.end(),
                                  std::make_move_iterator(shard.campaigns.begin()),
                                  std::make_move_iterator(shard.campaigns.end()));
  merged_.ports.merge(shard.ports);

  for (auto& exported : shard.segments) {
    FlowSegment segment = std::move(exported);
    const auto source = segment.source.value();
    if (segment.head) {
      auto& slot = tail_index_[source];
      if (slot != 0) {
        FlowSegment previous = std::move(open_tails_[slot - 1]);
        slot = 0;
        if (segment.first_seen_us - previous.last_seen_us <= config_.expiry) {
          // The gap fits inside the expiry: the whole-capture tracker
          // would have kept this flow alive across the boundary.
          segment = join_segments(std::move(previous), std::move(segment));
        } else {
          finalize_segment(std::move(previous), /*gap_closed=*/true);
        }
      }
    }
    if (segment.tail) {
      open_tails_.push_back(std::move(segment));
      tail_index_[source] = static_cast<std::uint32_t>(open_tails_.size());
    } else {
      // Followed inside its own shard by same-source traffic after an
      // expiry gap, so the whole-capture tracker gap-closed it too.
      finalize_segment(std::move(segment), /*gap_closed=*/true);
    }
  }
}

AnalyzedCapture RollupMerger::finish() {
  if (finished_) throw std::logic_error("RollupMerger::finish called twice");
  finished_ = true;

  const obs::ScopedTimer merge_timer("rollup.finish");
  tail_index_.for_each([&](std::uint32_t, std::uint32_t slot) {
    if (slot == 0) return;
    finalize_segment(std::move(open_tails_[slot - 1]), /*gap_closed=*/false);
  });
  open_tails_.clear();

  sort_canonical(merged_.result.campaigns);
  if (!any_shard_) merged_.from_cache = false;
  return std::move(merged_);
}

}  // namespace synscan::core
