// JSON-lines export of analysis results, for downstream tooling
// (notebooks, SIEM ingestion, plotting) and for the `synscand` daemon's
// in-memory query responses.
//
// One emission path: the `append_*` functions serialize into a
// caller-owned `std::string` (integers via to_chars, doubles via "%g").
// The daemon sends that string to a client buffer without touching the
// filesystem, and the CLI writes it to a file in one go, so
// `QUERY analyze` and `analyze --json` are the same bytes by
// construction.
#pragma once

#include <span>
#include <string>

#include "core/campaign.h"
#include "core/pipeline.h"

namespace synscan::report {

/// Escapes a string for inclusion in a JSON value.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Appends one campaign as a single-line JSON object:
/// {"id":..,"source":"..","tool":"..","first_seen_us":..,"last_seen_us":..,
///  "packets":..,"destinations":..,"ports":[..],"pps":..,"coverage":..}
/// Ports are listed in ascending order, capped at `max_ports` (the full
/// count stays in "distinct_ports"). No trailing newline.
void append_campaign_json(std::string& out, const core::Campaign& campaign,
                          std::size_t max_ports = 64);

/// Appends every campaign as newline-terminated JSON lines.
void append_campaigns_jsonl(std::string& out, std::span<const core::Campaign> campaigns,
                            std::size_t max_ports = 64);

/// Appends the run's counters as one JSON object. No trailing newline.
void append_counters_json(std::string& out, const core::PipelineResult& result);

/// Appends the `analyze --json` report: the counters object, a newline,
/// then the campaign JSONL. `QUERY analyze` and `rollup query` emit the
/// same bytes.
void append_analyze_json(std::string& out, const core::PipelineResult& result);

}  // namespace synscan::report
