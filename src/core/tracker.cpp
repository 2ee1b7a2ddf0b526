#include "core/tracker.h"

#include <algorithm>
#include <stdexcept>

#include "telescope/probe_batch.h"

namespace synscan::core {

CampaignTracker::CampaignTracker(TrackerConfig config, std::uint64_t monitored_addresses,
                                 Sink sink)
    : config_(config), model_(monitored_addresses), sink_(std::move(sink)) {
  if (!sink_) throw std::invalid_argument("CampaignTracker: sink must be callable");
}

std::uint32_t CampaignTracker::acquire_flow() {
  if (!free_.empty()) {
    const auto index = free_.back();
    free_.pop_back();
    ++counters_.flow_reuses;
    return index;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void CampaignTracker::feed(const telescope::ScanProbe& probe) {
  ++counters_.probes;
  now_ = std::max(now_, probe.timestamp_us);

  auto [slot, inserted] = table_.find_or_insert(probe.source.value());
  if (inserted) {
    slot = acquire_flow();
    Flow& fresh = pool_[slot];
    fresh.reset(config_.classifier);
    fresh.first_seen_us = probe.timestamp_us;
    // The table only grows on insertion, so the high-water mark can
    // only move here — keeps the per-probe path free of it.
    counters_.peak_open_flows =
        std::max<std::uint64_t>(counters_.peak_open_flows, table_.size());
  }
  Flow& flow = pool_[slot];
  if (!inserted && probe.timestamp_us - flow.last_seen_us > config_.expiry) {
    // The source went quiet for longer than the expiry: that scan is
    // over; what follows is a new one. Reset in place — the containers
    // keep their backing stores (no realloc on restart).
    if (config_.carry_boundary_flows && carried_sources_.insert(probe.source.value())) {
      // The source's first flow in this shard: it may continue a
      // previous shard's open flow, so export it unjudged.
      export_segment(probe.source, flow, /*head=*/true, /*tail=*/false);
    } else {
      close_flow(probe.source, flow);
      ++counters_.expired_flows;
    }
    ++counters_.flow_reuses;
    flow.reset(config_.classifier);
    flow.first_seen_us = probe.timestamp_us;
  }

  flow.last_seen_us = std::max(flow.last_seen_us, probe.timestamp_us);
  ++flow.packets;
  if (flow.destinations.insert(probe.destination.value()) &&
      flow.destinations.size() == HybridU32Set::kInlineCapacity + 1) {
    ++counters_.dest_promotions;
  }
  if (flow.port_packets.add(probe.destination_port, 1) &&
      flow.port_packets.size() == PortPacketMap::kInlineCapacity + 1) {
    ++counters_.port_promotions;
  }
  flow.evidence.observe(probe);

  if (++feeds_since_sweep_ >= config_.sweep_interval) {
    feeds_since_sweep_ = 0;
    sweep(now_);
  }
  counters_.table_rehashes = table_.rehashes();
}

void CampaignTracker::feed_batch(const telescope::ProbeBatch& batch,
                                 std::span<const std::uint32_t> rows) {
  for (const auto row : rows) feed(batch.get(row));
}

void CampaignTracker::close_flow(net::Ipv4Address source, Flow& flow) {
  const auto hits = static_cast<double>(flow.packets);
  const double duration = [&] {
    const auto us = flow.last_seen_us - flow.first_seen_us;
    return us < net::kMicrosPerSecond
               ? 1.0
               : static_cast<double>(us) / static_cast<double>(net::kMicrosPerSecond);
  }();
  const double pps = model_.extrapolate_pps(hits, duration);

  if (flow.destinations.size() >= config_.min_distinct_destinations &&
      pps >= config_.min_internet_pps) {
    Campaign campaign;
    campaign.id = next_id_++;
    campaign.source = source;
    campaign.first_seen_us = flow.first_seen_us;
    campaign.last_seen_us = flow.last_seen_us;
    campaign.packets = flow.packets;
    campaign.distinct_destinations = static_cast<std::uint32_t>(flow.destinations.size());
    campaign.port_packets = std::move(flow.port_packets);
    campaign.tool = flow.evidence.verdict();
    campaign.extrapolated_pps = pps;
    campaign.extrapolated_packets = model_.extrapolate_probes(hits);
    campaign.coverage_fraction =
        model_.coverage_fraction(static_cast<double>(flow.destinations.size()));
    ++counters_.campaigns;
    sink_(std::move(campaign));
    // The move stole the port map's backing store (it now belongs to the
    // campaign); leave the flow coherent for its next reuse.
    flow.port_packets.clear();
  } else {
    ++counters_.subthreshold_flows;
    counters_.subthreshold_packets += flow.packets;
  }
}

void CampaignTracker::export_segment(net::Ipv4Address source, const Flow& flow,
                                     bool head, bool tail) {
  FlowSegment segment;
  segment.source = source;
  segment.head = head;
  segment.tail = tail;
  segment.first_seen_us = flow.first_seen_us;
  segment.last_seen_us = flow.last_seen_us;
  segment.packets = flow.packets;
  segment.destinations.reserve(flow.destinations.size());
  flow.destinations.for_each(
      [&](std::uint32_t dest) { segment.destinations.push_back(dest); });
  std::sort(segment.destinations.begin(), segment.destinations.end());
  segment.port_packets.reserve(flow.port_packets.size());
  for (const auto [port, packets] : flow.port_packets) {
    segment.port_packets.emplace_back(port, packets);
  }
  std::sort(segment.port_packets.begin(), segment.port_packets.end());
  segment.evidence = flow.evidence.state();
  segments_.push_back(std::move(segment));
}

void CampaignTracker::sweep(net::TimeUs now) {
  ++counters_.sweeps;
  // Collect first, erase after: backward-shift deletion moves entries
  // into already-visited slots, so erasing mid-iteration could skip or
  // revisit flows. The scratch vector keeps its capacity across sweeps.
  sweep_keys_.clear();
  table_.for_each([&](std::uint32_t source, std::uint32_t slot) {
    if (now - pool_[slot].last_seen_us > config_.expiry) sweep_keys_.push_back(source);
  });
  for (const auto source : sweep_keys_) {
    const auto* slot = table_.find(source);
    Flow& flow = pool_[*slot];
    if (config_.carry_boundary_flows && carried_sources_.insert(source)) {
      export_segment(net::Ipv4Address(source), flow, /*head=*/true, /*tail=*/false);
    } else {
      close_flow(net::Ipv4Address(source), flow);
      ++counters_.expired_flows;
    }
    flow.reset(config_.classifier);
    free_.push_back(*slot);
    table_.erase(source);
  }
}

void CampaignTracker::finish(net::TimeUs stream_end) {
  now_ = std::max(now_, stream_end);
  table_.for_each([&](std::uint32_t source, std::uint32_t slot) {
    Flow& flow = pool_[slot];
    if (config_.carry_boundary_flows) {
      // Every still-open flow may continue into the next shard; if no
      // earlier flow of this source closed inside the shard, it is also
      // the source's first (head and tail at once).
      const bool head = carried_sources_.insert(source);
      export_segment(net::Ipv4Address(source), flow, head, /*tail=*/true);
    } else {
      if (now_ - flow.last_seen_us > config_.expiry) ++counters_.expired_flows;
      close_flow(net::Ipv4Address(source), flow);
    }
    flow.reset(config_.classifier);
    free_.push_back(slot);
  });
  table_.clear();
}

std::vector<Campaign> CampaignTracker::collect(
    TrackerConfig config, std::uint64_t monitored_addresses,
    std::span<const telescope::ScanProbe> probes) {
  std::vector<Campaign> campaigns;
  CampaignTracker tracker(config, monitored_addresses,
                          [&](Campaign&& c) { campaigns.push_back(std::move(c)); });
  for (const auto& probe : probes) tracker.feed(probe);
  tracker.finish();
  return campaigns;
}

}  // namespace synscan::core
