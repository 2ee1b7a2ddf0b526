#include "core/rollup_store.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace synscan::core {
namespace {

constexpr std::uint32_t kMagic = 0x31727073;  // "spr1" on disk
constexpr std::uint32_t kVersion = 4;
constexpr std::size_t kHeaderSize = 64;

/// `TimeUs` is signed; timestamps store as their two's-complement bits.
inline std::uint64_t time_bits(net::TimeUs t) { return static_cast<std::uint64_t>(t); }
inline net::TimeUs time_from(std::uint64_t v) { return static_cast<net::TimeUs>(v); }

/// `a + b` for stored packet counts, which must add up as true sums: a
/// sum that wraps is a defect, not a match.
std::uint64_t add_packets(std::uint64_t a, std::uint64_t b) {
  if (b > std::numeric_limits<std::uint64_t>::max() - a) throw ParseError{};
  return a + b;
}

// --- shared pieces ----------------------------------------------------

void put_probe(ByteWriter& out, const telescope::ScanProbe& probe) {
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

telescope::ScanProbe get_probe(ByteReader& in) {
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

/// Sorted (port, packets) rows, the buffer `save_rollup` reuses for
/// every map it writes.
using PortRows = std::vector<PortPacketMap::value_type>;

// Stored bytes of each fixed-width piece, as the put_* functions below
// write it; `payload_size` adds them up, and the readers bound each
// stored count by them.
constexpr std::size_t kPortRowBytes = 2 + 8;
constexpr std::size_t kProbeBytes = 8 + 4 + 4 + 2 + 2 + 4 + 4 + 2 + 2 + 1;
/// Meta fields, ten sensor and eleven tracker counters.
constexpr std::size_t kPrefixBytes = 8 + 4 + 8 + 8 + 10 * 8 + 11 * 8;
/// A campaign before its port rows (their u32 count included).
constexpr std::size_t kCampaignBytes = 8 + 4 + 8 + 8 + 8 + 4 + 1 + 3 * 8 + 4;
/// A segment without its destinations and port rows (both counts and
/// the fingerprint evidence included).
constexpr std::size_t kSegmentBytes = 4 + 1 + 3 * 8 + 8 + 4 + 7 * 8 + 2 * kProbeBytes;
/// A tally source before its port rows (their u32 count included).
constexpr std::size_t kSourceBytes = 4 + 4;

/// Emits a PortPacketMap as a u32 row count, then its (port, packets)
/// rows in ascending port order, in one bulk store — the map's own
/// iteration order is a function of insertion history, which must never
/// leak into the file bytes.
void put_port_map(ByteWriter& out, const PortPacketMap& map, PortRows& rows) {
  map.sorted_rows(rows);
  out.u32(static_cast<std::uint32_t>(rows.size()));
  auto* at = out.grow(kPortRowBytes * rows.size());
  for (const auto& [port, packets] : rows) {
    net::store_le16(at, port);
    net::store_le64(at + 2, packets);
    at += kPortRowBytes;
  }
}

/// Reads a stored map into `map`, sized once from its row count, and
/// returns its packets. Rows must be strictly ascending by port and
/// carry packets, as the writer emits them, so a file that passes the
/// checksum but repeats or reorders a row takes the fallback instead of
/// loading a different statistic.
std::uint64_t get_port_map(ByteReader& in, PortPacketMap& map) {
  const auto n = in.count32(kPortRowBytes);
  map.reserve(n);
  const auto* at = in.take(kPortRowBytes * n);
  std::uint16_t previous = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i, at += kPortRowBytes) {
    const auto port = net::load_le16(at);
    const auto packets = net::load_le64(at + 2);
    if ((i > 0 && port <= previous) || packets == 0) throw ParseError{};
    previous = port;
    total = add_packets(total, packets);
    map.add(port, packets);
  }
  return total;
}

void put_tracker(ByteWriter& out, const TrackerCounters& counters) {
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

void get_tracker(ByteReader& in, TrackerCounters& counters) {
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

void put_campaign(ByteWriter& out, const Campaign& campaign, PortRows& rows) {
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
  put_port_map(out, campaign.port_packets, rows);
}

Campaign get_campaign(ByteReader& in) {
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
  // A campaign's map counts each of its packets once.
  if (get_port_map(in, campaign.port_packets) != campaign.packets) throw ParseError{};
  return campaign;
}

void put_segment(ByteWriter& out, const FlowSegment& segment, PortRows& rows) {
  out.u32(segment.source.value());
  out.u8(static_cast<std::uint8_t>((segment.head ? 1 : 0) | (segment.tail ? 2 : 0)));
  out.u64(time_bits(segment.first_seen_us));
  out.u64(time_bits(segment.last_seen_us));
  out.u64(segment.packets);
  out.u64(segment.destinations.size());
  auto* at = out.grow(4 * segment.destinations.size());
  for (const auto destination : segment.destinations) {
    net::store_le32(at, destination);
    at += 4;
  }
  put_port_map(out, segment.port_packets, rows);
  const auto& evidence = segment.evidence;
  out.u64(evidence.probes);
  out.u64(evidence.zmap_hits);
  out.u64(evidence.masscan_hits);
  out.u64(evidence.mirai_hits);
  out.u64(evidence.nmap_pair_hits);
  out.u64(evidence.unicorn_pair_hits);
  out.u64(evidence.pairs);
  put_probe(out, evidence.first);
  put_probe(out, evidence.previous);
}

FlowSegment get_segment(ByteReader& in) {
  FlowSegment segment;
  segment.source = net::Ipv4Address(in.u32());
  const auto flags = in.u8();
  segment.head = (flags & 1) != 0;
  segment.tail = (flags & 2) != 0;
  segment.first_seen_us = time_from(in.u64());
  segment.last_seen_us = time_from(in.u64());
  segment.packets = in.u64();
  // Destinations strictly ascending, as the writer emits them: the
  // merger joins them as sorted sets.
  const auto destinations = in.count(4);
  const auto* at = in.take(4 * destinations);
  segment.destinations.resize(destinations);
  for (std::size_t i = 0; i < destinations; ++i, at += 4) {
    segment.destinations[i] = net::load_le32(at);
    if (i > 0 && segment.destinations[i] <= segment.destinations[i - 1]) throw ParseError{};
  }
  // A segment's map and its evidence each count every packet once.
  if (get_port_map(in, segment.port_packets) != segment.packets) throw ParseError{};
  auto& evidence = segment.evidence;
  evidence.probes = in.u64();
  if (evidence.probes != segment.packets) throw ParseError{};
  evidence.zmap_hits = in.u64();
  evidence.masscan_hits = in.u64();
  evidence.mirai_hits = in.u64();
  evidence.nmap_pair_hits = in.u64();
  evidence.unicorn_pair_hits = in.u64();
  evidence.pairs = in.u64();
  evidence.first = get_probe(in);
  evidence.previous = get_probe(in);
  return segment;
}

/// The tally section: sources in ascending order, each with its
/// (port, packets) rows in ascending port order.
void put_port_tally(ByteWriter& out, const PortTally& tally, PortRows& rows) {
  std::vector<std::pair<std::uint32_t, const PortPacketMap*>> sources;
  sources.reserve(tally.per_source().size());
  for (const auto& [source, ports] : tally.per_source()) sources.emplace_back(source, &ports);
  std::sort(sources.begin(), sources.end());
  out.u64(sources.size());
  for (const auto& [source, ports] : sources) {
    out.u32(source);
    put_port_map(out, *ports, rows);
  }
}

/// Reads the tally section and returns its packets. Sources must be
/// strictly ascending and each must have a row; `get_port_map` checks
/// the rows. The source table is not reserved from the stored count: an
/// entry costs about ten times the 18 bytes a source takes on disk.
std::uint64_t get_port_tally(ByteReader& in, PortTally& tally) {
  const auto sources = in.count(kSourceBytes + kPortRowBytes);  // one row at least
  std::uint64_t previous_source = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sources; ++i) {
    const auto source = in.u32();
    if (i > 0 && source <= previous_source) throw ParseError{};
    previous_source = source;
    PortPacketMap ports;
    total = add_packets(total, get_port_map(in, ports));
    if (ports.empty()) throw ParseError{};
    tally.add(source, std::move(ports));
  }
  return total;
}

/// Parses the 64-byte header; false when the file is shorter than it
/// or not an spr file.
bool parse_header(std::span<const std::uint8_t> bytes, RollupFileInfo& info) {
  if (bytes.size() < kHeaderSize) return false;
  ByteReader in(bytes.first(kHeaderSize));
  if (in.u32() != kMagic) return false;
  info.version = in.u32();
  info.source_size = in.u64();
  info.source_mtime_ns = in.u64();
  info.analysis_fingerprint = in.u64();
  info.campaigns = in.u64();
  info.segments = in.u64();
  info.payload_size = in.u64();
  info.checksum = in.u64();
  info.file_size = bytes.size();
  return true;
}

/// The payload's size in bytes: the layout is fixed-width, so the
/// writer's buffer is sized once.
std::size_t payload_size(const CaptureRollup& rollup) {
  std::size_t size = kPrefixBytes + 8 + 8 + 8;  // and three section counts
  for (const auto& campaign : rollup.campaigns) {
    size += kCampaignBytes + kPortRowBytes * campaign.port_packets.size();
  }
  for (const auto& segment : rollup.segments) {
    size += kSegmentBytes + 4 * segment.destinations.size() +
            kPortRowBytes * segment.port_packets.size();
  }
  for (const auto& [source, ports] : rollup.residual_ports.per_source()) {
    size += kSourceBytes + kPortRowBytes * ports.size();
  }
  return size;
}

}  // namespace

std::uint64_t analysis_fingerprint(const TrackerConfig& config,
                                   std::uint64_t monitored_addresses) {
  // Everything that can change the analysis result, and nothing that
  // cannot: sweep_interval is pure scheduling (see the header comment).
  ByteWriter words;
  words.u64(config.min_distinct_destinations);
  words.f64(config.min_internet_pps);
  words.u64(static_cast<std::uint64_t>(config.expiry));
  words.u64(config.classifier.min_matches);
  words.f64(config.classifier.min_fraction);
  words.u64(monitored_addresses);
  return fnv1a(words.bytes());
}

std::filesystem::path rollup_path_for(const std::filesystem::path& capture) {
  return std::filesystem::path(capture.native() + ".spr");
}

std::optional<RollupFileInfo> rollup_stat(const std::filesystem::path& path) {
  pcap::MappedFile file;
  if (map_sidecar(path, file) != nullptr) return std::nullopt;
  RollupFileInfo info;
  if (!parse_header(file.bytes(), info)) return std::nullopt;
  return info;
}

bool save_rollup(const std::filesystem::path& path, const CaptureRollup& rollup,
                 const CacheIdentity& identity, std::uint64_t fingerprint) {
  ByteWriter payload;
  payload.reserve(payload_size(rollup));
  PortRows rows;
  payload.u64(rollup.frames);
  payload.u32(static_cast<std::uint32_t>(rollup.final_status));
  payload.u64(time_bits(rollup.first_probe_us));
  payload.u64(time_bits(rollup.max_timestamp_us));
  put_sensor(payload, rollup.sensor);
  put_tracker(payload, rollup.tracker);
  payload.u64(rollup.campaigns.size());
  for (const auto& campaign : rollup.campaigns) put_campaign(payload, campaign, rows);
  payload.u64(rollup.segments.size());
  for (const auto& segment : rollup.segments) put_segment(payload, segment, rows);
  put_port_tally(payload, rollup.residual_ports, rows);

  ByteWriter header;
  header.u32(kMagic);
  header.u32(kVersion);
  header.u64(identity.source_size);
  header.u64(identity.source_mtime_ns);
  header.u64(fingerprint);
  header.u64(rollup.campaigns.size());
  header.u64(rollup.segments.size());
  header.u64(payload.bytes().size());
  header.u64(fnv1a(payload.bytes()));

  try {
    SidecarWriter file(path);
    file.append(header.bytes());
    file.append(payload.bytes());
    return file.commit();
  } catch (const std::exception&) {
    return false;
  }
}

std::optional<CaptureRollup> load_rollup(const std::filesystem::path& path,
                                         const enrich::InternetRegistry& /*registry*/,
                                         const CacheIdentity& expected,
                                         std::uint64_t fingerprint) {
  pcap::MappedFile file;
  if (map_sidecar(path, file) != nullptr) return std::nullopt;
  RollupFileInfo info;
  if (!parse_header(file.bytes(), info)) return std::nullopt;
  if (info.version != kVersion) return std::nullopt;
  if (info.source_size != expected.source_size ||
      info.source_mtime_ns != expected.source_mtime_ns) {
    return std::nullopt;  // stale: the capture changed under the rollup
  }
  if (info.analysis_fingerprint != fingerprint) return std::nullopt;
  if (info.file_size != kHeaderSize + info.payload_size) return std::nullopt;
  const auto payload = file.bytes().subspan(kHeaderSize);
  if (fnv1a(payload) != info.checksum) return std::nullopt;

  try {
    ByteReader in(payload);
    CaptureRollup rollup;
    rollup.capture = path;
    rollup.frames = in.u64();
    const auto status = in.u32();
    if (status > static_cast<std::uint32_t>(pcap::ReadStatus::kBadRecord)) {
      return std::nullopt;  // as `.spc`: a corrupt terminal status
    }
    rollup.final_status = static_cast<pcap::ReadStatus>(status);
    rollup.from_cache = true;  // a store hit serves a cached result
    rollup.first_probe_us = time_from(in.u64());
    rollup.max_timestamp_us = time_from(in.u64());
    get_sensor(in, rollup.sensor);
    get_tracker(in, rollup.tracker);
    // Every probe the shard's tracker counted is in exactly one place:
    // a campaign, a boundary segment or the residual tally.
    const auto& tracker = rollup.tracker;
    std::uint64_t packets = tracker.subthreshold_packets;
    const auto campaigns = in.count(kCampaignBytes);
    rollup.campaigns.reserve(campaigns);
    for (std::size_t i = 0; i < campaigns; ++i) {
      rollup.campaigns.push_back(get_campaign(in));
      packets = add_packets(packets, rollup.campaigns.back().packets);
    }
    const auto segments = in.count(kSegmentBytes);
    rollup.segments.reserve(segments);
    for (std::size_t i = 0; i < segments; ++i) {
      rollup.segments.push_back(get_segment(in));
      packets = add_packets(packets, rollup.segments.back().packets);
    }
    if (packets != tracker.probes) return std::nullopt;
    if (get_port_tally(in, rollup.residual_ports) != tracker.subthreshold_packets) {
      return std::nullopt;
    }
    if (!in.exhausted()) return std::nullopt;
    if (rollup.campaigns.size() != info.campaigns ||
        rollup.segments.size() != info.segments) {
      return std::nullopt;
    }
    return rollup;
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace synscan::core
