// synscand request/response protocol: the text commands carried inside
// wire frames (server/frame.h) and the response envelope.
//
// Requests are single-line UTF-8 commands:
//
//   PING
//   STATUS
//   LOAD <capture-path>
//   ROLLUP <capture-path> [capture-path ...]
//   QUERY <report> [key=value ...]
//   SHUTDOWN
//
// ROLLUP paths are space-delimited, so paths containing spaces cannot
// be expressed (LOAD, whose argument is the remainder verbatim, can
// still load such a capture on its own).
//
// Responses are `OK\n<body>` (body may be empty) or `ERR <message>`.
// For QUERY the body bytes are exactly what the offline `analyze`
// report emission produces for the same capture — byte-identical by
// construction (both go through report::append_* — pinned by
// tests/server/daemon_test.cpp).
//
// Full spec with examples: docs/SYNSCAND.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace synscan::server {

enum class RequestKind : std::uint8_t {
  kPing,
  kStatus,
  kLoad,
  kRollup,
  kQuery,
  kShutdown,
};

/// One `key=value` filter on a QUERY.
struct QueryFilter {
  std::string key;
  std::string value;
};

struct Request {
  RequestKind kind = RequestKind::kPing;
  /// LOAD: the capture path. QUERY: the report name.
  std::string argument;
  /// QUERY filters, in request order.
  std::vector<QueryFilter> filters;
  /// ROLLUP: the capture paths, in request order.
  std::vector<std::string> paths;
};

/// Parses one request payload. Returns false and fills `error` (a
/// human-readable reason, sent back verbatim in an ERR response) on
/// empty input, unknown verbs, missing arguments, or malformed filters.
[[nodiscard]] bool parse_request(std::string_view payload, Request& request,
                                 std::string& error);

/// The success envelope prefix; the body follows the newline.
inline constexpr std::string_view kOkHeader = "OK\n";

/// A complete error response payload ("ERR <message>").
[[nodiscard]] std::string error_response(std::string_view message);

/// Splits a response payload. Returns true for OK responses (`body`
/// points into `payload`); false for ERR (message in `error`) and for
/// envelopes that are neither (error says so).
[[nodiscard]] bool parse_response(std::string_view payload, std::string_view& body,
                                  std::string& error);

}  // namespace synscan::server
