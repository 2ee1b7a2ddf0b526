#include "core/rollup_store.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "net/endian.h"

namespace synscan::core {
namespace {

constexpr std::uint32_t kMagic = 0x31727073;  // "spr1" on disk
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = 64;

/// `TimeUs` is signed; timestamps store as their two's-complement bits.
inline std::uint64_t time_bits(net::TimeUs t) { return static_cast<std::uint64_t>(t); }
inline net::TimeUs time_from(std::uint64_t v) { return static_cast<net::TimeUs>(v); }

// --- payload writer ---------------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { grow(2, [&](std::uint8_t* p) { net::store_le16(p, v); }); }
  void u32(std::uint32_t v) { grow(4, [&](std::uint8_t* p) { net::store_le32(p, v); }); }
  void u64(std::uint64_t v) { grow(8, [&](std::uint8_t* p) { net::store_le64(p, v); }); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return out_; }

 private:
  template <typename Store>
  void grow(std::size_t n, Store&& store) {
    const auto at = out_.size();
    out_.resize(at + n);
    store(out_.data() + at);
  }

  std::vector<std::uint8_t> out_;
};

/// Thrown (and caught inside `load_rollup`) on any payload defect; the
/// caller only ever sees nullopt.
struct ParseError {};

// --- payload reader ---------------------------------------------------

class Reader {
 public:
  Reader(const std::uint8_t* begin, std::size_t size) : p_(begin), end_(begin + size) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint16_t u16() {
    need(2);
    const auto v = net::load_le16(p_);
    p_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    const auto v = net::load_le32(p_);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const auto v = net::load_le64(p_);
    p_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }

  /// A stored element count (u64; `count32` for a u32 field),
  /// sanity-bounded by the remaining bytes so a corrupt length cannot
  /// drive a multi-gigabyte reserve. `min_bytes_each` must be nonzero.
  std::size_t count(std::size_t min_bytes_each) { return bounded(u64(), min_bytes_each); }
  std::size_t count32(std::size_t min_bytes_each) { return bounded(u32(), min_bytes_each); }

  [[nodiscard]] bool exhausted() const noexcept { return p_ == end_; }

 private:
  void need(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) throw ParseError{};
  }

  std::size_t bounded(std::uint64_t n, std::size_t min_bytes_each) const {
    if (n > static_cast<std::uint64_t>(end_ - p_) / min_bytes_each) throw ParseError{};
    return static_cast<std::size_t>(n);
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// --- shared pieces ----------------------------------------------------

void put_probe(Writer& out, const telescope::ScanProbe& probe) {
  out.u64(time_bits(probe.timestamp_us));
  out.u32(probe.source.value());
  out.u32(probe.destination.value());
  out.u16(probe.source_port);
  out.u16(probe.destination_port);
  out.u32(probe.sequence);
  out.u32(probe.acknowledgment);
  out.u16(probe.ip_id);
  out.u16(probe.window);
  out.u8(probe.ttl);
}

telescope::ScanProbe get_probe(Reader& in) {
  telescope::ScanProbe probe;
  probe.timestamp_us = time_from(in.u64());
  probe.source = net::Ipv4Address(in.u32());
  probe.destination = net::Ipv4Address(in.u32());
  probe.source_port = in.u16();
  probe.destination_port = in.u16();
  probe.sequence = in.u32();
  probe.acknowledgment = in.u32();
  probe.ip_id = in.u16();
  probe.window = in.u16();
  probe.ttl = in.u8();
  return probe;
}

/// Emits a PortPacketMap as sorted (port, packets) rows — the map's own
/// iteration order is a function of insertion history, which must never
/// leak into the file bytes.
void put_port_map(Writer& out, const PortPacketMap& map) {
  std::vector<std::pair<std::uint16_t, std::uint64_t>> rows;
  rows.reserve(map.size());
  for (const auto& [port, packets] : map) rows.emplace_back(port, packets);
  std::sort(rows.begin(), rows.end());
  out.u32(static_cast<std::uint32_t>(rows.size()));
  for (const auto& [port, packets] : rows) {
    out.u16(port);
    out.u64(packets);
  }
}

void get_port_map(Reader& in, PortPacketMap& map) {
  const auto n = in.count32(10);
  for (std::size_t i = 0; i < n; ++i) {
    const auto port = in.u16();
    map.add(port, in.u64());
  }
}

void put_sensor(Writer& out, const telescope::SensorCounters& sensor) {
  out.u64(sensor.scan_probes);
  out.u64(sensor.backscatter);
  out.u64(sensor.xmas_or_null);
  out.u64(sensor.other_tcp);
  out.u64(sensor.udp);
  out.u64(sensor.icmp);
  out.u64(sensor.not_monitored);
  out.u64(sensor.ingress_blocked);
  out.u64(sensor.malformed);
  out.u64(sensor.spoofed_source);
}

void get_sensor(Reader& in, telescope::SensorCounters& sensor) {
  sensor.scan_probes = in.u64();
  sensor.backscatter = in.u64();
  sensor.xmas_or_null = in.u64();
  sensor.other_tcp = in.u64();
  sensor.udp = in.u64();
  sensor.icmp = in.u64();
  sensor.not_monitored = in.u64();
  sensor.ingress_blocked = in.u64();
  sensor.malformed = in.u64();
  sensor.spoofed_source = in.u64();
}

void put_tracker(Writer& out, const TrackerCounters& counters) {
  out.u64(counters.probes);
  out.u64(counters.campaigns);
  out.u64(counters.subthreshold_flows);
  out.u64(counters.subthreshold_packets);
  out.u64(counters.expired_flows);
  out.u64(counters.sweeps);
  out.u64(counters.peak_open_flows);
  out.u64(counters.flow_reuses);
  out.u64(counters.dest_promotions);
  out.u64(counters.port_promotions);
  out.u64(counters.table_rehashes);
}

void get_tracker(Reader& in, TrackerCounters& counters) {
  counters.probes = in.u64();
  counters.campaigns = in.u64();
  counters.subthreshold_flows = in.u64();
  counters.subthreshold_packets = in.u64();
  counters.expired_flows = in.u64();
  counters.sweeps = in.u64();
  counters.peak_open_flows = in.u64();
  counters.flow_reuses = in.u64();
  counters.dest_promotions = in.u64();
  counters.port_promotions = in.u64();
  counters.table_rehashes = in.u64();
}

void put_campaign(Writer& out, const Campaign& campaign) {
  out.u64(campaign.id);
  out.u32(campaign.source.value());
  out.u64(time_bits(campaign.first_seen_us));
  out.u64(time_bits(campaign.last_seen_us));
  out.u64(campaign.packets);
  out.u32(campaign.distinct_destinations);
  out.u8(static_cast<std::uint8_t>(campaign.tool));
  out.f64(campaign.extrapolated_pps);
  out.f64(campaign.coverage_fraction);
  out.f64(campaign.extrapolated_packets);
  put_port_map(out, campaign.port_packets);
}

Campaign get_campaign(Reader& in) {
  Campaign campaign;
  campaign.id = in.u64();
  campaign.source = net::Ipv4Address(in.u32());
  campaign.first_seen_us = time_from(in.u64());
  campaign.last_seen_us = time_from(in.u64());
  campaign.packets = in.u64();
  campaign.distinct_destinations = in.u32();
  const auto tool = in.u8();
  if (tool >= fingerprint::kToolCount) throw ParseError{};
  campaign.tool = static_cast<fingerprint::Tool>(tool);
  campaign.extrapolated_pps = in.f64();
  campaign.coverage_fraction = in.f64();
  campaign.extrapolated_packets = in.f64();
  get_port_map(in, campaign.port_packets);
  return campaign;
}

void put_segment(Writer& out, const FlowSegment& segment) {
  out.u32(segment.source.value());
  out.u8(static_cast<std::uint8_t>((segment.head ? 1 : 0) | (segment.tail ? 2 : 0)));
  out.u64(time_bits(segment.first_seen_us));
  out.u64(time_bits(segment.last_seen_us));
  out.u64(segment.packets);
  out.u64(segment.destinations.size());
  for (const auto destination : segment.destinations) out.u32(destination);
  out.u32(static_cast<std::uint32_t>(segment.port_packets.size()));
  for (const auto& [port, packets] : segment.port_packets) {
    out.u16(port);
    out.u64(packets);
  }
  const auto& evidence = segment.evidence;
  out.u64(evidence.probes);
  out.u64(evidence.zmap_hits);
  out.u64(evidence.masscan_hits);
  out.u64(evidence.mirai_hits);
  out.u64(evidence.nmap_pair_hits);
  out.u64(evidence.unicorn_pair_hits);
  out.u64(evidence.pairs);
  out.u8(evidence.have_previous ? 1 : 0);
  put_probe(out, evidence.first);
  put_probe(out, evidence.previous);
}

FlowSegment get_segment(Reader& in) {
  FlowSegment segment;
  segment.source = net::Ipv4Address(in.u32());
  const auto flags = in.u8();
  segment.head = (flags & 1) != 0;
  segment.tail = (flags & 2) != 0;
  segment.first_seen_us = time_from(in.u64());
  segment.last_seen_us = time_from(in.u64());
  segment.packets = in.u64();
  const auto destinations = in.count(4);
  segment.destinations.reserve(destinations);
  for (std::size_t i = 0; i < destinations; ++i) segment.destinations.push_back(in.u32());
  const auto ports = in.count32(10);
  segment.port_packets.reserve(ports);
  for (std::size_t i = 0; i < ports; ++i) {
    const auto port = in.u16();
    segment.port_packets.emplace_back(port, in.u64());
  }
  auto& evidence = segment.evidence;
  evidence.probes = in.u64();
  evidence.zmap_hits = in.u64();
  evidence.masscan_hits = in.u64();
  evidence.mirai_hits = in.u64();
  evidence.nmap_pair_hits = in.u64();
  evidence.unicorn_pair_hits = in.u64();
  evidence.pairs = in.u64();
  evidence.have_previous = in.u8() != 0;
  evidence.first = get_probe(in);
  evidence.previous = get_probe(in);
  return segment;
}

/// The tally section: sources in ascending order, each with its
/// (port, packets) rows in ascending port order.
void put_port_tally(Writer& out, const PortTally& tally) {
  std::vector<std::pair<std::uint32_t, const PortPacketMap*>> sources;
  sources.reserve(tally.per_source().size());
  for (const auto& [source, ports] : tally.per_source()) sources.emplace_back(source, &ports);
  std::sort(sources.begin(), sources.end());
  out.u64(sources.size());
  for (const auto& [source, ports] : sources) {
    out.u32(source);
    put_port_map(out, *ports);
  }
}

/// Reads the tally section. Rows must be strictly ascending by
/// (source, port) and carry packets, so a file that passes the checksum
/// but repeats or reorders a row takes the fallback instead of loading a
/// different statistic.
void get_port_tally(Reader& in, PortTally& tally) {
  const auto sources = in.count(4 + 4 + 10);  // a source has at least one row
  std::uint64_t previous_source = 0;
  for (std::size_t i = 0; i < sources; ++i) {
    const auto source = in.u32();
    if (i > 0 && source <= previous_source) throw ParseError{};
    previous_source = source;
    const auto rows = in.count32(10);
    if (rows == 0) throw ParseError{};
    std::uint32_t previous_port = 0;
    for (std::size_t j = 0; j < rows; ++j) {
      const auto port = in.u16();
      const auto packets = in.u64();
      if ((j > 0 && port <= previous_port) || packets == 0) throw ParseError{};
      previous_port = port;
      tally.add(source, port, packets);
    }
  }
}

}  // namespace

std::uint64_t analysis_fingerprint(const TrackerConfig& config,
                                   std::uint64_t monitored_addresses) {
  // Everything that can change the analysis result, and nothing that
  // cannot: sweep_interval is pure scheduling (see the header comment).
  const std::uint64_t words[] = {
      static_cast<std::uint64_t>(config.min_distinct_destinations),
      std::bit_cast<std::uint64_t>(config.min_internet_pps),
      static_cast<std::uint64_t>(config.expiry),
      static_cast<std::uint64_t>(config.classifier.min_matches),
      std::bit_cast<std::uint64_t>(config.classifier.min_fraction),
      monitored_addresses,
  };
  std::uint8_t bytes[sizeof(words)];
  for (std::size_t i = 0; i < std::size(words); ++i) net::store_le64(bytes + 8 * i, words[i]);
  return fnv1a(bytes);
}

std::filesystem::path rollup_path_for(const std::filesystem::path& capture) {
  return std::filesystem::path(capture.native() + ".spr");
}

std::optional<RollupFileInfo> rollup_stat(const std::filesystem::path& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) return std::nullopt;
  std::uint8_t header[kHeaderSize];
  stream.read(reinterpret_cast<char*>(header), kHeaderSize);
  if (stream.gcount() != static_cast<std::streamsize>(kHeaderSize)) return std::nullopt;
  if (net::load_le32(header) != kMagic) return std::nullopt;
  RollupFileInfo info;
  info.version = net::load_le32(header + 4);
  info.source_size = net::load_le64(header + 8);
  info.source_mtime_ns = net::load_le64(header + 16);
  info.analysis_fingerprint = net::load_le64(header + 24);
  info.campaigns = net::load_le64(header + 32);
  info.segments = net::load_le64(header + 40);
  info.payload_size = net::load_le64(header + 48);
  info.checksum = net::load_le64(header + 56);
  std::error_code ec;
  info.file_size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  return info;
}

bool save_rollup(const std::filesystem::path& path, const CaptureRollup& rollup,
                 const CacheIdentity& identity, std::uint64_t fingerprint) {
  Writer out;
  out.u64(rollup.frames);
  out.u32(static_cast<std::uint32_t>(rollup.final_status));
  out.u8(rollup.from_cache ? 1 : 0);
  out.u64(time_bits(rollup.max_timestamp_us));
  put_sensor(out, rollup.sensor);
  put_tracker(out, rollup.tracker);
  out.u64(rollup.campaigns.size());
  for (const auto& campaign : rollup.campaigns) put_campaign(out, campaign);
  out.u64(rollup.segments.size());
  for (const auto& segment : rollup.segments) put_segment(out, segment);
  put_port_tally(out, rollup.ports);

  const auto& payload = out.bytes();
  std::uint8_t header[kHeaderSize];
  net::store_le32(header, kMagic);
  net::store_le32(header + 4, kVersion);
  net::store_le64(header + 8, identity.source_size);
  net::store_le64(header + 16, identity.source_mtime_ns);
  net::store_le64(header + 24, fingerprint);
  net::store_le64(header + 32, rollup.campaigns.size());
  net::store_le64(header + 40, rollup.segments.size());
  net::store_le64(header + 48, payload.size());
  net::store_le64(header + 56, fnv1a(payload));

  const auto tmp = std::filesystem::path(path.native() + ".tmp");
  {
    std::ofstream stream(tmp, std::ios::binary | std::ios::trunc);
    if (!stream) return false;
    stream.write(reinterpret_cast<const char*>(header), kHeaderSize);
    stream.write(reinterpret_cast<const char*>(payload.data()),
                 static_cast<std::streamsize>(payload.size()));
    stream.flush();
    if (!stream) {
      stream.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<CaptureRollup> load_rollup(const std::filesystem::path& path,
                                         const enrich::InternetRegistry& /*registry*/,
                                         const CacheIdentity& expected,
                                         std::uint64_t fingerprint) {
  const auto info = rollup_stat(path);
  if (!info) return std::nullopt;
  if (info->version != kVersion) return std::nullopt;
  if (info->source_size != expected.source_size ||
      info->source_mtime_ns != expected.source_mtime_ns) {
    return std::nullopt;  // stale: the capture changed under the rollup
  }
  if (info->analysis_fingerprint != fingerprint) return std::nullopt;
  if (info->file_size != kHeaderSize + info->payload_size) return std::nullopt;

  std::ifstream stream(path, std::ios::binary);
  if (!stream) return std::nullopt;
  stream.seekg(static_cast<std::streamoff>(kHeaderSize));
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(info->payload_size));
  stream.read(reinterpret_cast<char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  if (stream.gcount() != static_cast<std::streamsize>(payload.size())) {
    return std::nullopt;
  }
  if (fnv1a(payload) != info->checksum) {
    return std::nullopt;
  }

  try {
    Reader in(payload.data(), payload.size());
    CaptureRollup rollup;
    rollup.capture = path;
    rollup.frames = in.u64();
    const auto status = in.u32();
    if (status > static_cast<std::uint32_t>(pcap::ReadStatus::kBadRecord)) {
      return std::nullopt;  // as `.spc`: a corrupt terminal status
    }
    rollup.final_status = static_cast<pcap::ReadStatus>(status);
    rollup.from_cache = in.u8() != 0;
    rollup.max_timestamp_us = time_from(in.u64());
    get_sensor(in, rollup.sensor);
    get_tracker(in, rollup.tracker);
    const auto campaigns = in.count(8);
    rollup.campaigns.reserve(campaigns);
    for (std::size_t i = 0; i < campaigns; ++i) {
      rollup.campaigns.push_back(get_campaign(in));
    }
    const auto segments = in.count(8);
    rollup.segments.reserve(segments);
    for (std::size_t i = 0; i < segments; ++i) {
      rollup.segments.push_back(get_segment(in));
    }
    get_port_tally(in, rollup.ports);
    if (!in.exhausted()) return std::nullopt;
    if (rollup.campaigns.size() != info->campaigns ||
        rollup.segments.size() != info->segments) {
      return std::nullopt;
    }
    return rollup;
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace synscan::core
