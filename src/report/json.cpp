#include "report/json.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <vector>

#include "fingerprint/tool.h"

namespace synscan::report {
namespace {

/// Appends JSON fields to a caller-owned string. Integers format via
/// to_chars; doubles via printf "%g", which is byte-identical to the
/// default ostream formatting the per-field writer used (defaultfloat at
/// precision 6), so downstream diffs of existing reports stay empty.
/// The daemon serializes a report straight into a client's write buffer
/// through it, no filesystem involved.
class Appender {
 public:
  explicit Appender(std::string& out) : out_(out) {}

  void text(std::string_view s) { out_.append(s); }
  void ch(char c) { out_.push_back(c); }

  template <typename Int>
    requires std::integral<Int>
  void number(Int value) {
    char tmp[24];
    const auto [end, ec] = std::to_chars(tmp, tmp + sizeof(tmp), value);
    out_.append(tmp, end);
  }

  void number(double value) {
    char tmp[32];
    const auto n = std::snprintf(tmp, sizeof(tmp), "%g", value);
    if (n > 0) out_.append(tmp, static_cast<std::size_t>(n));
  }

 private:
  std::string& out_;
};

void append_campaign(Appender& out, const core::Campaign& campaign,
                     std::size_t max_ports) {
  std::vector<std::uint16_t> ports;
  ports.reserve(campaign.port_packets.size());
  for (const auto& [port, packets] : campaign.port_packets) ports.push_back(port);
  // Only the listed prefix is printed, so only it needs sorting.
  const auto listed = std::min(ports.size(), max_ports);
  std::partial_sort(ports.begin(), ports.begin() + static_cast<std::ptrdiff_t>(listed),
                    ports.end());

  out.text("{\"id\":");
  out.number(campaign.id);
  out.text(",\"source\":\"");
  out.text(campaign.source.to_string());
  out.text("\",\"tool\":\"");
  out.text(fingerprint::to_string(campaign.tool));
  out.text("\",\"first_seen_us\":");
  out.number(campaign.first_seen_us);
  out.text(",\"last_seen_us\":");
  out.number(campaign.last_seen_us);
  out.text(",\"packets\":");
  out.number(campaign.packets);
  out.text(",\"destinations\":");
  out.number(campaign.distinct_destinations);
  out.text(",\"distinct_ports\":");
  out.number(campaign.distinct_ports());
  out.text(",\"ports\":[");
  for (std::size_t i = 0; i < listed; ++i) {
    if (i > 0) out.ch(',');
    out.number(ports[i]);
  }
  out.text("],\"pps\":");
  out.number(campaign.extrapolated_pps);
  out.text(",\"coverage\":");
  out.number(campaign.coverage_fraction);
  out.ch('}');
}

void append_counters(Appender& out, const core::PipelineResult& result) {
  out.text("{\"scan_probes\":");
  out.number(result.sensor.scan_probes);
  out.text(",\"backscatter\":");
  out.number(result.sensor.backscatter);
  out.text(",\"xmas_or_null\":");
  out.number(result.sensor.xmas_or_null);
  out.text(",\"other_tcp\":");
  out.number(result.sensor.other_tcp);
  out.text(",\"udp\":");
  out.number(result.sensor.udp);
  out.text(",\"icmp\":");
  out.number(result.sensor.icmp);
  out.text(",\"not_monitored\":");
  out.number(result.sensor.not_monitored);
  out.text(",\"ingress_blocked\":");
  out.number(result.sensor.ingress_blocked);
  out.text(",\"malformed\":");
  out.number(result.sensor.malformed);
  out.text(",\"spoofed_source\":");
  out.number(result.sensor.spoofed_source);
  out.text(",\"campaigns\":");
  out.number(result.campaigns.size());
  out.text(",\"subthreshold_flows\":");
  out.number(result.tracker.subthreshold_flows);
  out.text(",\"subthreshold_packets\":");
  out.number(result.tracker.subthreshold_packets);
  out.text(",\"expired_flows\":");
  out.number(result.tracker.expired_flows);
  // sweeps and peak_open_flows are deliberately NOT emitted: both depend
  // on sweep scheduling and worker/shard interleaving, so they would
  // break the invariant that merged shard rollups reproduce the whole-
  // capture report byte for byte. They remain visible as metrics and in
  // `TrackerCounters` for diagnostics.
  out.ch('}');
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_campaign_json(std::string& out, const core::Campaign& campaign,
                          std::size_t max_ports) {
  Appender appender(out);
  append_campaign(appender, campaign, max_ports);
}

void append_campaigns_jsonl(std::string& out, std::span<const core::Campaign> campaigns,
                            std::size_t max_ports) {
  Appender appender(out);
  for (const auto& campaign : campaigns) {
    append_campaign(appender, campaign, max_ports);
    appender.ch('\n');
  }
}

void append_counters_json(std::string& out, const core::PipelineResult& result) {
  Appender appender(out);
  append_counters(appender, result);
}

void append_analyze_json(std::string& out, const core::PipelineResult& result) {
  append_counters_json(out, result);
  out.push_back('\n');
  append_campaigns_jsonl(out, result.campaigns);
}

}  // namespace synscan::report
