#include "server/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace synscan::server {
namespace {

Request parse_ok(std::string_view payload) {
  Request request;
  std::string error;
  EXPECT_TRUE(parse_request(payload, request, error)) << error;
  return request;
}

std::string parse_err(std::string_view payload) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_request(payload, request, error));
  return error;
}

TEST(Protocol, ParsesBareVerbs) {
  EXPECT_EQ(parse_ok("PING").kind, RequestKind::kPing);
  EXPECT_EQ(parse_ok("STATUS").kind, RequestKind::kStatus);
  EXPECT_EQ(parse_ok("SHUTDOWN").kind, RequestKind::kShutdown);
}

TEST(Protocol, LoadTakesPathVerbatimIncludingSpaces) {
  const auto request = parse_ok("LOAD /data/dir with spaces/window.pcap");
  EXPECT_EQ(request.kind, RequestKind::kLoad);
  EXPECT_EQ(request.argument, "/data/dir with spaces/window.pcap");
}

TEST(Protocol, LoadWithoutPathIsAnError) {
  EXPECT_NE(parse_err("LOAD").find("capture path"), std::string::npos);
  EXPECT_NE(parse_err("LOAD   ").find("capture path"), std::string::npos);
}

TEST(Protocol, RollupKeepsPathsInOrder) {
  const auto request = parse_ok("ROLLUP b.pcap a.pcap");
  EXPECT_EQ(request.kind, RequestKind::kRollup);
  EXPECT_EQ(request.paths, (std::vector<std::string>{"b.pcap", "a.pcap"}));
}

TEST(Protocol, RollupWithoutPathsIsAnError) {
  EXPECT_NE(parse_err("ROLLUP").find("capture path"), std::string::npos);
  EXPECT_NE(parse_err("ROLLUP   ").find("capture path"), std::string::npos);
}

TEST(Protocol, QueryParsesReportAndFilters) {
  const auto request = parse_ok("QUERY campaigns tool=zmap min_packets=100");
  EXPECT_EQ(request.kind, RequestKind::kQuery);
  EXPECT_EQ(request.argument, "campaigns");
  ASSERT_EQ(request.filters.size(), 2u);
  EXPECT_EQ(request.filters[0].key, "tool");
  EXPECT_EQ(request.filters[0].value, "zmap");
  EXPECT_EQ(request.filters[1].key, "min_packets");
  EXPECT_EQ(request.filters[1].value, "100");
}

TEST(Protocol, QueryToleratesExtraSpacing) {
  const auto request = parse_ok("QUERY   counters  ");
  EXPECT_EQ(request.argument, "counters");
  EXPECT_TRUE(request.filters.empty());
}

TEST(Protocol, QueryRejectsMalformedFilters) {
  EXPECT_NE(parse_err("QUERY campaigns toolzmap").find("key=value"), std::string::npos);
  EXPECT_NE(parse_err("QUERY campaigns =zmap").find("key=value"), std::string::npos);
  EXPECT_NE(parse_err("QUERY").find("report name"), std::string::npos);
}

TEST(Protocol, RejectsUnknownVerbsEmptyAndBinary) {
  EXPECT_NE(parse_err("FROBNICATE").find("unknown command"), std::string::npos);
  EXPECT_NE(parse_err("").find("empty"), std::string::npos);
  EXPECT_NE(parse_err(std::string_view("PI\x01NG", 5)).find("printable"),
            std::string::npos);
  EXPECT_NE(parse_err("PING\nSTATUS").find("printable"), std::string::npos);
}

TEST(Protocol, TrailingJunkAfterCompleteCommandIsAnError) {
  EXPECT_NE(parse_err("PING extra").find("trailing"), std::string::npos);
  EXPECT_NE(parse_err("STATUS now").find("trailing"), std::string::npos);
}

TEST(Protocol, ResponseEnvelopeRoundTrip) {
  std::string_view body;
  std::string error;
  EXPECT_TRUE(parse_response("OK\n{\"a\":1}\n", body, error));
  EXPECT_EQ(body, "{\"a\":1}\n");
  EXPECT_TRUE(parse_response("OK\n", body, error));
  EXPECT_EQ(body, "");
  EXPECT_FALSE(parse_response(error_response("nope"), body, error));
  EXPECT_EQ(error, "nope");
  EXPECT_FALSE(parse_response("garbage", body, error));
  EXPECT_NE(error.find("malformed"), std::string::npos);
}

}  // namespace
}  // namespace synscan::server
