#include "core/port_tally.h"

#include <algorithm>
#include <utility>

namespace synscan::core {

void PortTally::on_probe(const telescope::ScanProbe& probe) {
  add(probe.source.value(), probe.destination_port, 1);
}

void PortTally::add(std::uint32_t source, std::uint16_t port, std::uint64_t packets) {
  per_source_[source].add(port, packets);
  total_packets_ += packets;
}

void PortTally::add(std::uint32_t source, PortPacketMap ports) {
  for (const auto [port, packets] : ports) total_packets_ += packets;
  fold(source, std::move(ports));
}

void PortTally::merge(PortTally other) {
  total_packets_ += other.total_packets_;
  if (per_source_.empty()) {
    per_source_ = std::move(other.per_source_);
    return;
  }
  other.per_source_.for_each(
      [&](std::uint32_t source, PortPacketMap& ports) { fold(source, std::move(ports)); });
}

void PortTally::fold(std::uint32_t source, PortPacketMap&& ports) {
  auto [mine, fresh] = per_source_.find_or_insert(source);
  if (fresh) {
    mine = std::move(ports);
    return;
  }
  mine.reserve(mine.size() + ports.size());
  for (const auto [port, packets] : ports) mine.add(port, packets);
}

namespace {

std::vector<PortCount> top_n(const PortPacketMap& counts, std::size_t n,
                             std::uint64_t denominator) {
  std::vector<PortCount> rows;
  rows.reserve(counts.size());
  for (const auto& [port, count] : counts) rows.push_back({port, count, 0.0});
  std::sort(rows.begin(), rows.end(), [](const PortCount& a, const PortCount& b) {
    return a.count != b.count ? a.count > b.count : a.port < b.port;
  });
  if (rows.size() > n) rows.resize(n);
  for (auto& row : rows) {
    row.share = denominator == 0
                    ? 0.0
                    : static_cast<double>(row.count) / static_cast<double>(denominator);
  }
  return rows;
}

}  // namespace

PortPacketMap PortTally::packets_per_port() const {
  PortPacketMap totals;
  for (const auto& [source, ports] : per_source_) {
    for (const auto [port, packets] : ports) totals.add(port, packets);
  }
  return totals;
}

std::vector<PortCount> PortTally::top_ports_by_packets(std::size_t n) const {
  return top_n(packets_per_port(), n, total_packets_);
}

std::vector<PortCount> PortTally::top_ports_by_sources(std::size_t n) const {
  PortPacketMap sources;
  for (const auto& [source, ports] : per_source_) {
    for (const auto [port, packets] : ports) sources.add(port, 1);
  }
  return top_n(sources, n, total_sources());
}

std::uint64_t PortTally::packets_on_port(std::uint16_t port) const {
  std::uint64_t total = 0;
  for (const auto& [source, ports] : per_source_) total += ports.get(port);
  return total;
}

std::uint64_t PortTally::sources_on_port(std::uint16_t port) const {
  std::uint64_t total = 0;
  for (const auto& [source, ports] : per_source_) {
    if (ports.contains(port)) ++total;
  }
  return total;
}

std::size_t PortTally::ports_with_at_least(std::uint64_t min_packets) const {
  std::size_t count = 0;
  for (const auto& [port, packets] : packets_per_port()) {
    if (packets >= min_packets) ++count;
  }
  return count;
}

double PortTally::privileged_port_coverage(double noise_floor) const {
  const auto totals = packets_per_port();
  std::uint64_t privileged_total = 0;
  for (const auto& [port, packets] : totals) {
    if (port >= 1 && port <= 1023) privileged_total += packets;
  }
  if (privileged_total == 0) return 0.0;
  const double threshold =
      noise_floor * static_cast<double>(privileged_total) / 1023.0;
  std::size_t above = 0;
  for (const auto& [port, packets] : totals) {
    if (port >= 1 && port <= 1023 && static_cast<double>(packets) > threshold) ++above;
  }
  return static_cast<double>(above) / 1023.0;
}

std::vector<double> PortTally::ports_per_source_sample() const {
  std::vector<double> sample;
  sample.reserve(per_source_.size());
  for (const auto& [source, ports] : per_source_) {
    sample.push_back(static_cast<double>(ports.size()));
  }
  return sample;
}

double PortTally::co_scan_fraction(std::uint16_t a, std::uint16_t b) const {
  std::uint64_t scans_a = 0;
  std::uint64_t scans_both = 0;
  for (const auto& [source, ports] : per_source_) {
    if (!ports.contains(a)) continue;
    ++scans_a;
    if (ports.contains(b)) ++scans_both;
  }
  return scans_a == 0 ? 0.0 : static_cast<double>(scans_both) / static_cast<double>(scans_a);
}

}  // namespace synscan::core
