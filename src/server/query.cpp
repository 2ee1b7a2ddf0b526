#include "server/query.h"

#include <charconv>
#include <cstdint>

#include "fingerprint/tool.h"
#include "report/json.h"

namespace synscan::server {
namespace {

/// Campaign-list filters, parsed from `key=value` pairs.
struct CampaignFilters {
  bool filter_tool = false;
  fingerprint::Tool tool = fingerprint::Tool::kUnknown;
  std::uint64_t min_packets = 0;
  std::size_t max_ports = 64;  ///< matches report::append_campaign_json default
};

bool parse_u64(std::string_view text, std::uint64_t& value) {
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

bool parse_campaign_filters(const Request& request, CampaignFilters& filters,
                            std::string& error) {
  for (const auto& filter : request.filters) {
    if (filter.key == "tool") {
      filters.filter_tool = true;
      filters.tool = fingerprint::tool_from_string(filter.value);
      // tool_from_string folds unknown names into kUnknown; only accept
      // that when the client literally asked for "unknown".
      if (filters.tool == fingerprint::Tool::kUnknown && filter.value != "unknown") {
        error = "unknown tool '" + filter.value + "'";
        return false;
      }
    } else if (filter.key == "min_packets") {
      if (!parse_u64(filter.value, filters.min_packets)) {
        error = "min_packets expects a non-negative integer";
        return false;
      }
    } else if (filter.key == "max_ports") {
      std::uint64_t ports = 0;
      if (!parse_u64(filter.value, ports)) {
        error = "max_ports expects a non-negative integer";
        return false;
      }
      filters.max_ports = static_cast<std::size_t>(ports);
    } else {
      error = "unknown filter '" + filter.key + "'";
      return false;
    }
  }
  return true;
}

void append_campaigns(std::string& out, const core::AnalyzedCapture& analysis,
                      const CampaignFilters& filters) {
  for (const auto& campaign : analysis.result.campaigns) {
    if (filters.filter_tool && campaign.tool != filters.tool) continue;
    if (campaign.packets < filters.min_packets) continue;
    report::append_campaign_json(out, campaign, filters.max_ports);
    out.push_back('\n');
  }
}

}  // namespace

bool run_query(const core::AnalyzedCapture& analysis, const Request& request,
               std::string& out, std::string& error) {
  if (request.argument == "counters") {
    if (!request.filters.empty()) {
      error = "counters takes no filters";
      return false;
    }
    report::append_counters_json(out, analysis.result);
    out.push_back('\n');
    return true;
  }
  if (request.argument == "campaigns") {
    CampaignFilters filters;
    if (!parse_campaign_filters(request, filters, error)) return false;
    append_campaigns(out, analysis, filters);
    return true;
  }
  if (request.argument == "analyze") {
    // The exact bytes `analyze --json=<file>` writes: counters object,
    // newline, campaign JSONL (docs/SYNSCAND.md pins this equivalence).
    if (!request.filters.empty()) {
      error = "analyze takes no filters";
      return false;
    }
    report::append_analyze_json(out, analysis.result);
    return true;
  }
  error = "unknown report '" + request.argument +
          "' (expected counters, campaigns, or analyze)";
  return false;
}

}  // namespace synscan::server
