// Packets per (source, destination port): the one probe-level tally.
//
// Table 1's "top ports by packets / by sources" blocks, the port-space
// coverage analysis (§5.1) and the ports-per-source CDF (Fig. 3) read
// it directly. The scanner-type views (Table 2, Fig. 5;
// core/analysis_types.h) and the country views (§4.2, §5.4;
// core/analysis_geo.h) derive from it with one registry lookup per
// source, because a source's type and country are fixed by the
// registry.
#pragma once

#include <cstdint>
#include <vector>

#include "core/flat_map.h"
#include "core/observers.h"
#include "core/port_map.h"

namespace synscan::core {

/// A (port, weight) result row.
struct PortCount {
  std::uint16_t port = 0;
  std::uint64_t count = 0;
  double share = 0.0;  ///< of the total across all ports
};

class PortTally final : public ProbeObserver {
 public:
  /// Source -> packets per destination port, in first-seen source order.
  using SourcePorts = FlatHashMap<std::uint32_t, PortPacketMap>;

  void on_probe(const telescope::ScanProbe& probe) override;

  /// Column-direct tally over a batch slice: reads only the source and
  /// destination-port columns, and looks a source up once per run of
  /// its rows (scan probes arrive in per-source bursts). Must stay
  /// bit-identical to the `on_probe` reference (differential-tested).
  void observe_batch(const telescope::ProbeBatch& batch,
                     std::span<const std::uint32_t> rows) override;

  /// Adds `packets` to one (source, port) pair, as if that many probes
  /// had been observed.
  void add(std::uint32_t source, std::uint16_t port, std::uint64_t packets);

  /// Adds one source's whole port map, as if its packets had been
  /// observed (the `.spr` decoder's path): a source new to the tally
  /// takes the map as it is.
  void add(std::uint32_t source, PortPacketMap ports);

  /// Folds another tally in. The state is a sum per (source, port), so
  /// merging per-shard tallies in any order equals tallying the whole
  /// capture in one pass (the rollup invariant). Whole maps move: a
  /// source new to this tally takes `other`'s map, a source already
  /// here sizes its map once for both and sums the rows in, and an
  /// empty tally takes `other` whole. New sources append in `other`'s
  /// order, as a per-probe tally of this tally's probes and then
  /// `other`'s would insert them. Pass an rvalue to move; an lvalue
  /// argument is copied.
  void merge(PortTally other);

  /// The sufficient statistic itself.
  [[nodiscard]] const SourcePorts& per_source() const noexcept { return per_source_; }

  /// Total probes observed.
  [[nodiscard]] std::uint64_t total_packets() const noexcept { return total_packets_; }

  /// Distinct source count.
  [[nodiscard]] std::uint64_t total_sources() const noexcept { return per_source_.size(); }

  /// Top `n` ports by packet count, with shares.
  [[nodiscard]] std::vector<PortCount> top_ports_by_packets(std::size_t n) const;

  /// Top `n` ports by distinct scanning sources, with shares of the
  /// total source count (a source scanning two ports counts for both,
  /// matching the paper's per-port source percentages).
  [[nodiscard]] std::vector<PortCount> top_ports_by_sources(std::size_t n) const;

  /// Packets seen on one port.
  [[nodiscard]] std::uint64_t packets_on_port(std::uint16_t port) const;

  /// Distinct sources seen on one port.
  [[nodiscard]] std::uint64_t sources_on_port(std::uint16_t port) const;

  /// Number of distinct ports receiving at least `min_packets`.
  [[nodiscard]] std::size_t ports_with_at_least(std::uint64_t min_packets) const;

  /// Fraction of privileged ports (1..1023) whose packet count exceeds
  /// `noise_floor` times the mean privileged-port packet count — the
  /// §5.1 "31% of privileged ports probed above a 1% noise floor".
  [[nodiscard]] double privileged_port_coverage(double noise_floor = 0.01) const;

  /// The per-source distinct-port counts (the Fig. 3 sample).
  [[nodiscard]] std::vector<double> ports_per_source_sample() const;

  /// Fraction of sources scanning `a` that also scan `b` (the §5.1
  /// "18% of scans targeting 80 also targeted 8080 in 2015, 87% in
  /// 2020" measurement). Returns 0 when no source scans `a`.
  [[nodiscard]] double co_scan_fraction(std::uint16_t a, std::uint16_t b) const;

 private:
  /// Packets per port summed over sources.
  [[nodiscard]] PortPacketMap packets_per_port() const;

  /// Folds one source's map in without touching `total_packets_`.
  void fold(std::uint32_t source, PortPacketMap&& ports);

  // Flat inline-first maps (see docs/PERFORMANCE.md): the 83% of
  // sources that scan one port (Fig. 3) never allocate a port table.
  SourcePorts per_source_;
  std::uint64_t total_packets_ = 0;
};

}  // namespace synscan::core
