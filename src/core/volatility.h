// Week-over-week volatility per /16 source netblock (§4.4, Fig. 2).
//
// For every /16 netblock on the Internet that sent traffic, this
// accumulator builds weekly series of (a) packets, (b) distinct source
// IPs and (c) campaigns launched, and reduces each series to
// "change factors" — max(cur/prev, prev/cur) for consecutive weeks. The
// figure is the CDF of those factors pooled over all netblocks.
#pragma once

#include <cstdint>

#include "core/campaign.h"
#include "core/flat_map.h"
#include "core/hybrid_set.h"
#include "core/observers.h"
#include "stats/ecdf.h"

namespace synscan::core {

class VolatilityTracker final : public ProbeObserver {
 public:
  /// `origin` anchors week boundaries (the start of the measurement
  /// window); `week` overrides the bucket width for tests.
  explicit VolatilityTracker(net::TimeUs origin, net::TimeUs week = net::kMicrosPerWeek);

  void on_probe(const telescope::ScanProbe& probe) override {
    count(probe.source.value(), probe.timestamp_us);
  }

  /// Column-direct tally over the source and timestamp columns, through
  /// the same counting body as `on_probe`.
  void observe_batch(const telescope::ProbeBatch& batch,
                     std::span<const std::uint32_t> rows) override;

  /// Campaigns are attributed to the week of their first packet.
  void on_campaign(const Campaign& campaign);

  /// The three pooled change-factor distributions.
  struct Result {
    stats::Ecdf packet_change;
    stats::Ecdf source_change;
    stats::Ecdf campaign_change;
    std::size_t netblocks = 0;  ///< /16s with any activity
    std::size_t weeks = 0;      ///< weeks spanned by the data
  };
  [[nodiscard]] Result result() const;

 private:
  [[nodiscard]] std::uint32_t week_of(net::TimeUs t) const noexcept;
  /// Counts one probe from `source` at `timestamp_us`.
  void count(std::uint32_t source, net::TimeUs timestamp_us);

  net::TimeUs origin_;
  net::TimeUs week_;
  std::uint32_t max_week_ = 0;
  // Keyed by (slash16 << 32) | week.
  FlatHashMap<std::uint64_t, std::uint64_t> packets_;
  FlatHashMap<std::uint64_t, std::uint64_t> campaigns_;
  FlatHashMap<std::uint64_t, HybridU32Set> sources_;
  HybridU32Set active_blocks_;
};

}  // namespace synscan::core
