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
    fresh.reset();
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
    if (config_.carry_boundary_flows && is_head(probe.source.value(), flow)) {
      // It may continue a previous shard's open flow, so export it
      // unjudged.
      export_segment(probe.source, flow, /*head=*/true, /*tail=*/false);
    } else {
      close_flow(probe.source, flow);
      ++counters_.expired_flows;
    }
    ++counters_.flow_reuses;
    flow.reset();
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

std::optional<Campaign> qualify(const TrackerConfig& config,
                                const stats::TelescopeModel& model, net::Ipv4Address source,
                                net::TimeUs first_seen_us, net::TimeUs last_seen_us,
                                std::uint64_t packets, std::size_t distinct_destinations,
                                TrackerCounters& counters) {
  const auto hits = static_cast<double>(packets);
  const double pps =
      model.extrapolate_pps(hits, flow_duration_seconds(first_seen_us, last_seen_us));
  const bool qualifies = distinct_destinations >= config.min_distinct_destinations &&
                         pps >= config.min_internet_pps;
  if (!qualifies) {
    ++counters.subthreshold_flows;
    counters.subthreshold_packets += packets;
    return std::nullopt;
  }
  Campaign campaign;
  campaign.source = source;
  campaign.first_seen_us = first_seen_us;
  campaign.last_seen_us = last_seen_us;
  campaign.packets = packets;
  campaign.distinct_destinations = static_cast<std::uint32_t>(distinct_destinations);
  campaign.extrapolated_pps = pps;
  campaign.extrapolated_packets = model.extrapolate_probes(hits);
  campaign.coverage_fraction =
      model.coverage_fraction(static_cast<double>(distinct_destinations));
  ++counters.campaigns;
  return campaign;
}

void CampaignTracker::close_flow(net::Ipv4Address source, Flow& flow) {
  auto campaign = qualify(config_, model_, source, flow.first_seen_us, flow.last_seen_us,
                          flow.packets, flow.destinations.size(), counters_);
  if (campaign) {
    campaign->id = next_id_++;
    campaign->port_packets = std::move(flow.port_packets);
    campaign->tool = flow.evidence.verdict(config_.classifier);
    sink_(std::move(*campaign));
  } else {
    residual_ports_.add(source.value(), std::move(flow.port_packets));
  }
  // The move stole the port map's backing store (it now belongs to the
  // campaign or the residual); leave the flow coherent for its next reuse.
  flow.port_packets.clear();
}

bool CampaignTracker::is_head(std::uint32_t source, const Flow& flow) {
  // A previous shard's tail ends at or before this shard's first probe,
  // so a flow starting later than `expiry` after it cannot continue one.
  return flow.first_seen_us - first_probe_us_ <= config_.expiry &&
         carried_sources_.insert(source);
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
  segment.port_packets = flow.port_packets;
  segment.evidence = flow.evidence;
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
    if (config_.carry_boundary_flows && is_head(source, flow)) {
      export_segment(net::Ipv4Address(source), flow, /*head=*/true, /*tail=*/false);
    } else {
      close_flow(net::Ipv4Address(source), flow);
      ++counters_.expired_flows;
    }
    flow.reset();
    free_.push_back(*slot);
    table_.erase(source);
  }
}

void CampaignTracker::finish(net::TimeUs stream_end) {
  now_ = std::max(now_, stream_end);
  table_.for_each([&](std::uint32_t source, std::uint32_t slot) {
    Flow& flow = pool_[slot];
    const bool expired = now_ - flow.last_seen_us > config_.expiry;
    // Carry mode: a flow seen within `expiry` of the end may continue
    // into the next shard (a tail), and a head may continue a previous
    // shard's flow; either leaves unjudged. Whether a sweep already saw
    // an expired head go is scheduling, so it leaves head-only either way.
    const bool head = config_.carry_boundary_flows && is_head(source, flow);
    const bool tail = config_.carry_boundary_flows && !expired;
    if (head || tail) {
      export_segment(net::Ipv4Address(source), flow, head, tail);
    } else {
      if (expired) ++counters_.expired_flows;
      close_flow(net::Ipv4Address(source), flow);
    }
    flow.reset();
    free_.push_back(slot);
  });
  table_.clear();
}

}  // namespace synscan::core
