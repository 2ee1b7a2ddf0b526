// Test-only reference implementation of the campaign tracker, kept on
// the std containers the production tracker used before the flat-table
// rewrite (open-addressing flow table, hybrid destination sets, pooled
// flows — see docs/PERFORMANCE.md).
//
// The differential test feeds identical probe streams through this and
// through `core::CampaignTracker` and asserts identical campaign sets
// and counters, so any behavioural drift in the optimized hot path is
// caught against an implementation whose correctness is easy to audit.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/campaign.h"
#include "core/tracker.h"
#include "fingerprint/classifier.h"
#include "stats/telescope_model.h"
#include "telescope/sensor.h"

namespace synscan::testing {

/// Straightforward std-container port of the pre-optimization tracker.
/// Mirrors `core::CampaignTracker` semantics exactly; only the data
/// structures differ.
class ReferenceTracker {
 public:
  using Sink = std::function<void(core::Campaign&&)>;

  ReferenceTracker(core::TrackerConfig config, std::uint64_t monitored_addresses,
                   Sink sink)
      : config_(config), model_(monitored_addresses), sink_(std::move(sink)) {}

  void feed(const telescope::ScanProbe& probe) {
    ++counters_.probes;
    now_ = std::max(now_, probe.timestamp_us);

    auto [it, inserted] = flows_.try_emplace(probe.source.value());
    Flow& flow = it->second;
    if (inserted) {
      flow.first_seen_us = probe.timestamp_us;
      counters_.peak_open_flows =
          std::max<std::uint64_t>(counters_.peak_open_flows, flows_.size());
    } else if (probe.timestamp_us - flow.last_seen_us > config_.expiry) {
      close_flow(it->first, flow);
      ++counters_.expired_flows;
      flow = Flow{};
      flow.first_seen_us = probe.timestamp_us;
    }

    flow.last_seen_us = std::max(flow.last_seen_us, probe.timestamp_us);
    ++flow.packets;
    flow.destinations.insert(probe.destination.value());
    ++flow.port_packets[probe.destination_port];
    flow.evidence.observe(probe);

    if (++feeds_since_sweep_ >= config_.sweep_interval) {
      feeds_since_sweep_ = 0;
      sweep(now_);
    }
  }

  void finish() {
    for (auto& [source, flow] : flows_) {
      // Stream-end closes count as expired when the scan had already
      // gone quiet for longer than the expiry (mirrors the production
      // tracker's timestamp-pure expired_flows definition).
      if (now_ - flow.last_seen_us > config_.expiry) ++counters_.expired_flows;
      close_flow(source, flow);
    }
    flows_.clear();
  }

  [[nodiscard]] const core::TrackerCounters& counters() const noexcept {
    return counters_;
  }

 private:
  struct Flow {
    net::TimeUs first_seen_us = 0;
    net::TimeUs last_seen_us = 0;
    std::uint64_t packets = 0;
    std::unordered_set<std::uint32_t> destinations;
    std::unordered_map<std::uint16_t, std::uint64_t> port_packets;
    fingerprint::ToolEvidence evidence;
  };

  void close_flow(std::uint32_t source, Flow& flow) {
    const auto hits = static_cast<double>(flow.packets);
    const auto us = flow.last_seen_us - flow.first_seen_us;
    const double duration =
        us < net::kMicrosPerSecond
            ? 1.0
            : static_cast<double>(us) / static_cast<double>(net::kMicrosPerSecond);
    const double pps = model_.extrapolate_pps(hits, duration);

    if (flow.destinations.size() >= config_.min_distinct_destinations &&
        pps >= config_.min_internet_pps) {
      core::Campaign campaign;
      campaign.id = next_id_++;
      campaign.source = net::Ipv4Address(source);
      campaign.first_seen_us = flow.first_seen_us;
      campaign.last_seen_us = flow.last_seen_us;
      campaign.packets = flow.packets;
      campaign.distinct_destinations =
          static_cast<std::uint32_t>(flow.destinations.size());
      for (const auto& [port, packets] : flow.port_packets) {
        campaign.port_packets[port] = packets;
      }
      campaign.tool = flow.evidence.verdict(config_.classifier);
      campaign.extrapolated_pps = pps;
      campaign.extrapolated_packets = model_.extrapolate_probes(hits);
      campaign.coverage_fraction =
          model_.coverage_fraction(static_cast<double>(flow.destinations.size()));
      ++counters_.campaigns;
      sink_(std::move(campaign));
    } else {
      ++counters_.subthreshold_flows;
      counters_.subthreshold_packets += flow.packets;
    }
  }

  void sweep(net::TimeUs now) {
    ++counters_.sweeps;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (now - it->second.last_seen_us > config_.expiry) {
        close_flow(it->first, it->second);
        ++counters_.expired_flows;
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
  }

  core::TrackerConfig config_;
  stats::TelescopeModel model_;
  Sink sink_;
  std::unordered_map<std::uint32_t, Flow> flows_;
  core::TrackerCounters counters_;
  net::TimeUs now_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t feeds_since_sweep_ = 0;
};

}  // namespace synscan::testing
