// Per-port daily packet series and the disclosure-decay analysis
// (§4.3, Fig. 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flat_map.h"
#include "core/observers.h"
#include "stats/hypothesis.h"

namespace synscan::core {

/// Streams probes into (port, day) packet counts anchored at `origin`.
class DailyPortSeries final : public ProbeObserver {
 public:
  explicit DailyPortSeries(net::TimeUs origin) : origin_(origin) {}

  void on_probe(const telescope::ScanProbe& probe) override {
    count(probe.timestamp_us, probe.destination_port);
  }

  /// Column-direct tally over the timestamp and destination-port
  /// columns, through the same counting body as `on_probe`.
  void observe_batch(const telescope::ProbeBatch& batch,
                     std::span<const std::uint32_t> rows) override;

  /// Dense daily packet counts for a port over [0, days()).
  [[nodiscard]] std::vector<std::uint64_t> series(std::uint16_t port) const;

  /// Dense daily totals over all ports.
  [[nodiscard]] std::vector<std::uint64_t> totals() const;

  /// Number of day buckets spanned by the data.
  [[nodiscard]] std::size_t days() const noexcept { return max_day_ + 1; }

  [[nodiscard]] net::TimeUs origin() const noexcept { return origin_; }

 private:
  /// Counts one probe to `port` at `timestamp_us`.
  void count(net::TimeUs timestamp_us, std::uint16_t port);
  net::TimeUs origin_;
  std::size_t max_day_ = 0;
  // (port << 32) | day
  FlatHashMap<std::uint64_t, std::uint64_t> counts_;
  FlatHashMap<std::uint32_t, std::uint64_t> day_totals_;
};

/// The Fig. 1 measurement for one vulnerability-disclosure event.
struct DisclosureDecay {
  std::uint16_t port = 0;
  std::size_t disclosure_day = 0;
  /// Activity multiplier relative to the pre-disclosure daily average,
  /// indexed by days after disclosure (entry 0 = disclosure day).
  std::vector<double> multiplier;
  double peak_multiplier = 0.0;
  std::size_t peak_day_after = 0;
  /// First day after the peak on which activity returns below
  /// `recovered_threshold` times baseline; SIZE_MAX when it never does.
  std::size_t days_to_recover = SIZE_MAX;
  /// KS test comparing the port's daily counts well after the event
  /// against the pre-disclosure baseline ("back to normal": high p).
  stats::KsTest back_to_normal;
};

/// Analyzes the decay of interest in `port` after a disclosure on
/// `disclosure_day`. `baseline_days` of pre-disclosure data form the
/// baseline; recovery compares each post-peak day against
/// `recovered_threshold` x baseline. The KS window is the final
/// `ks_window` days of the series.
[[nodiscard]] DisclosureDecay disclosure_decay(const DailyPortSeries& series,
                                               std::uint16_t port,
                                               std::size_t disclosure_day,
                                               std::size_t baseline_days = 7,
                                               double recovered_threshold = 2.0,
                                               std::size_t ks_window = 7);

}  // namespace synscan::core
