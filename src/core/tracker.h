// The campaign tracker: per-source scan state with threshold-based
// qualification and inactivity expiry (§3.4).
//
// Definition implemented here (extending Durumeric et al.): a scan is a
// probe sequence from one source address that hits at least
// `min_distinct_destinations` dark addresses at an inferred Internet-wide
// rate of at least `min_internet_pps`, and expires after
// `expiry` without a packet. Expired or stream-end state that meets the
// thresholds is emitted as a Campaign; everything else is counted as
// sub-threshold noise.
//
// Hot-path layout (see docs/PERFORMANCE.md): sources are keyed in an
// open-addressing `FlowIndexTable` pointing into a pooled `Flow` vector;
// per-flow destination sets and port tallies are inline-first hybrid
// containers that only touch the allocator once a source proves it is a
// real scanner. Closed flows return to a free list with their container
// capacity intact, so steady-state tracking performs no allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/campaign.h"
#include "core/flow_table.h"
#include "core/hybrid_set.h"
#include "core/port_map.h"
#include "fingerprint/classifier.h"
#include "stats/telescope_model.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"

namespace synscan::core {

/// Tracker thresholds; defaults are the paper's.
struct TrackerConfig {
  std::uint32_t min_distinct_destinations = 100;
  double min_internet_pps = 100.0;
  net::TimeUs expiry = net::kMicrosPerHour;
  /// Sweep for expired sources every this many fed probes.
  std::uint64_t sweep_interval = 1 << 16;
  fingerprint::ClassifierConfig classifier;
  /// Shard mode (core/rollup.h): instead of finalizing flows whose
  /// qualification could depend on traffic outside this capture's time
  /// range, export them as `FlowSegment`s — each source's *first* flow
  /// (it may continue a previous shard's open flow) and every flow still
  /// open at stream end (it may continue into the next shard). Interior
  /// flows close normally. `take_boundary_segments()` collects the
  /// exports after `finish()`.
  bool carry_boundary_flows = false;
};

/// One source's flow state at a shard boundary, exported by a tracker
/// running in carry mode. Holds everything `close_flow` needs —
/// including the full destination set and fingerprint evidence — so
/// that joining the segments of adjacent shards and then finalizing is
/// bit-identical to having tracked the whole capture in one pass.
struct FlowSegment {
  net::Ipv4Address source;
  bool head = false;  ///< first flow of this source in the shard
  bool tail = false;  ///< still open at stream end
  net::TimeUs first_seen_us = 0;
  net::TimeUs last_seen_us = 0;
  std::uint64_t packets = 0;
  std::vector<std::uint32_t> destinations;  ///< distinct, sorted
  std::vector<std::pair<std::uint16_t, std::uint64_t>> port_packets;  ///< sorted by port
  fingerprint::EvidenceState evidence;
};

/// Counters describing everything the tracker saw, including traffic
/// that never qualified as a campaign.
struct TrackerCounters {
  std::uint64_t probes = 0;
  std::uint64_t campaigns = 0;
  std::uint64_t subthreshold_flows = 0;  ///< expired flows that did not qualify
  std::uint64_t subthreshold_packets = 0;
  std::uint64_t expired_flows = 0;   ///< flows closed by inactivity (not stream end)
  std::uint64_t sweeps = 0;          ///< expiry sweeps over the flow table
  std::uint64_t peak_open_flows = 0; ///< high-water mark of the flow table
  // Allocation-behaviour counters for the flat hot path:
  std::uint64_t flow_reuses = 0;      ///< flows recycled from the pool / reset in place
  std::uint64_t dest_promotions = 0;  ///< destination sets grown past the inline array
  std::uint64_t port_promotions = 0;  ///< port tallies grown past the inline array
  std::uint64_t table_rehashes = 0;   ///< flow-index table growth events

  /// Sums another tracker's counters in. Summed trackers hold disjoint
  /// flows (split by source or time), so the peak sum bounds their peak.
  void add(const TrackerCounters& other) noexcept {
    probes += other.probes;
    campaigns += other.campaigns;
    subthreshold_flows += other.subthreshold_flows;
    subthreshold_packets += other.subthreshold_packets;
    expired_flows += other.expired_flows;
    sweeps += other.sweeps;
    peak_open_flows += other.peak_open_flows;
    flow_reuses += other.flow_reuses;
    dest_promotions += other.dest_promotions;
    port_promotions += other.port_promotions;
    table_rehashes += other.table_rehashes;
  }
};

/// The §3.4 campaign rule, the one definition the tracker and the rollup
/// merger share: a closed flow is a campaign when it hit
/// `min_distinct_destinations` dark addresses at an inferred Internet-wide
/// rate (duration floored at 1 s) of at least `min_internet_pps`. Counts
/// the verdict in `counters`; a campaign comes back with its span, volume
/// and estimates, leaving ports, tool and id to the caller.
[[nodiscard]] std::optional<Campaign> qualify(
    const TrackerConfig& config, const stats::TelescopeModel& model,
    net::Ipv4Address source, net::TimeUs first_seen_us, net::TimeUs last_seen_us,
    std::uint64_t packets, std::size_t distinct_destinations, TrackerCounters& counters);

/// Streaming campaign detector. Feed probes in timestamp order; expired
/// qualifying flows are emitted through the sink as they close, and
/// `finish()` flushes everything still open.
class CampaignTracker {
 public:
  using Sink = std::function<void(Campaign&&)>;

  /// `monitored_addresses` parameterizes the geometric extrapolation
  /// model (usually `telescope.monitored_count()`).
  CampaignTracker(TrackerConfig config, std::uint64_t monitored_addresses, Sink sink);

  /// Feeds the next probe. Probes may arrive slightly out of order; the
  /// tracker uses the maximum timestamp seen as "now" for expiry.
  void feed(const telescope::ScanProbe& probe);

  /// Feeds the batch rows listed in `rows`, in order. The tracker's flow
  /// state machine is inherently per-probe, so this materializes each
  /// row; it exists so batch-slice callers need no ScanProbe staging.
  void feed_batch(const telescope::ProbeBatch& batch,
                  std::span<const std::uint32_t> rows);

  /// Flushes all open flows (end of measurement window). A flow whose
  /// last packet is more than `expiry` before the final observed
  /// timestamp counts as expired — the scan had ended, the stream end
  /// merely delivered the verdict — which keeps `expired_flows` a pure
  /// function of the probe timestamps (and therefore shard-mergeable)
  /// instead of an artifact of sweep scheduling. A tracker fed only part
  /// of the stream passes the stream's last timestamp as `stream_end`;
  /// "now" is the later of it and the last timestamp this tracker saw.
  void finish(net::TimeUs stream_end = 0);

  /// Carry mode only: the boundary segments collected so far (heads as
  /// they closed, tails at `finish()`). Moves the collection out.
  [[nodiscard]] std::vector<FlowSegment> take_boundary_segments() {
    return std::move(segments_);
  }

  /// Maximum probe timestamp observed ("now" for expiry decisions).
  [[nodiscard]] net::TimeUs now() const noexcept { return now_; }

  [[nodiscard]] const TrackerCounters& counters() const noexcept { return counters_; }

  /// Number of currently open (unexpired) flows.
  [[nodiscard]] std::size_t open_flows() const noexcept { return table_.size(); }

  /// Pool slots currently parked on the free list (capacity held for
  /// reuse); exposed for the capacity-recycling tests.
  [[nodiscard]] std::size_t pooled_free_flows() const noexcept { return free_.size(); }

  /// Convenience: run a full probe vector through a fresh tracker and
  /// return the campaigns.
  [[nodiscard]] static std::vector<Campaign> collect(
      TrackerConfig config, std::uint64_t monitored_addresses,
      std::span<const telescope::ScanProbe> probes);

 private:
  struct Flow {
    net::TimeUs first_seen_us = 0;
    net::TimeUs last_seen_us = 0;
    std::uint64_t packets = 0;
    HybridU32Set destinations;
    PortPacketMap port_packets;
    fingerprint::ToolEvidence evidence;

    /// Restart in place for a new scan from the same or a recycled
    /// source: containers are emptied but keep their backing stores.
    void reset(const fingerprint::ClassifierConfig& classifier) {
      first_seen_us = 0;
      last_seen_us = 0;
      packets = 0;
      destinations.clear();
      port_packets.clear();
      evidence = fingerprint::ToolEvidence(classifier);
    }
  };

  /// Pool slot for a fresh flow: recycled from the free list when
  /// possible, appended otherwise.
  std::uint32_t acquire_flow();

  void close_flow(net::Ipv4Address source, Flow& flow);
  /// Copies `flow` out as a boundary segment (carry mode).
  void export_segment(net::Ipv4Address source, const Flow& flow, bool head, bool tail);
  void sweep(net::TimeUs now);

  TrackerConfig config_;
  stats::TelescopeModel model_;
  Sink sink_;
  FlowIndexTable table_;             ///< source -> pool index
  std::vector<Flow> pool_;           ///< flow storage, indexed by the table
  std::vector<std::uint32_t> free_;  ///< recycled pool slots
  std::vector<std::uint32_t> sweep_keys_;  ///< scratch: sources expiring this sweep
  std::vector<FlowSegment> segments_;      ///< carry mode: exported boundary flows
  HybridU32Set carried_sources_;  ///< carry mode: sources whose head was already exported
  TrackerCounters counters_;
  net::TimeUs now_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t feeds_since_sweep_ = 0;
};

}  // namespace synscan::core
