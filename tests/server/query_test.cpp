#include "server/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "core/analysis_session.h"
#include "enrich/registry.h"
#include "report/json.h"
#include "server/protocol.h"
#include "server_test_util.h"

namespace synscan::server {
namespace {

namespace fs = std::filesystem;

/// One analyzed capture shared by every test in this file (analysis is
/// the expensive part; queries against it are const).
class QueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new testing::ScratchDir();
    const auto capture = *dir_ / "window.pcap";
    testing::write_server_capture(capture);
    analysis_ = new core::AnalyzedCapture(core::analyze_capture(
        capture, testing::server_telescope(),
        enrich::InternetRegistry::synthetic_default(), 1, {}));
    ASSERT_FALSE(analysis_->result.campaigns.empty());
  }

  static void TearDownTestSuite() {
    delete analysis_;
    analysis_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  static std::string query(std::string_view command) {
    Request request;
    std::string error;
    EXPECT_TRUE(parse_request(command, request, error)) << error;
    std::string out;
    EXPECT_TRUE(run_query(*analysis_, request, out, error)) << error;
    return out;
  }

  static std::string query_error(std::string_view command) {
    Request request;
    std::string error;
    EXPECT_TRUE(parse_request(command, request, error)) << error;
    std::string out;
    EXPECT_FALSE(run_query(*analysis_, request, out, error));
    EXPECT_TRUE(out.empty()) << "failed queries must not emit partial output";
    return error;
  }

  static testing::ScratchDir* dir_;
  static core::AnalyzedCapture* analysis_;
};

testing::ScratchDir* QueryTest::dir_ = nullptr;
core::AnalyzedCapture* QueryTest::analysis_ = nullptr;

TEST_F(QueryTest, CountersMatchesDirectEmission) {
  std::string expected;
  report::append_counters_json(expected, analysis_->result);
  expected.push_back('\n');
  EXPECT_EQ(query("QUERY counters"), expected);
}

TEST_F(QueryTest, AnalyzeIsCountersPlusCampaignJsonl) {
  std::string expected;
  report::append_counters_json(expected, analysis_->result);
  expected.push_back('\n');
  report::append_campaigns_jsonl(expected, analysis_->result.campaigns);
  EXPECT_EQ(query("QUERY analyze"), expected);
}

TEST_F(QueryTest, CampaignsUnfilteredListsEveryCampaign) {
  const auto out = query("QUERY campaigns");
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            analysis_->result.campaigns.size());
}

TEST_F(QueryTest, MinPacketsFilterDropsSmallCampaigns) {
  EXPECT_EQ(query("QUERY campaigns min_packets=18446744073709551615"), "");
  const auto all = query("QUERY campaigns min_packets=0");
  EXPECT_EQ(all, query("QUERY campaigns"));
}

TEST_F(QueryTest, ToolFilterMatchesCampaignFields) {
  std::size_t expected = 0;
  for (const auto& campaign : analysis_->result.campaigns) {
    if (campaign.tool == fingerprint::Tool::kUnknown) ++expected;
  }
  const auto out = query("QUERY campaigns tool=unknown");
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            expected);
}

TEST_F(QueryTest, MaxPortsFilterCapsThePortList) {
  const auto capped = query("QUERY campaigns max_ports=1");
  // Every emitted line still reports its true distinct port count; the
  // visible list is what shrinks. The capped emission can never be
  // longer than the default one.
  EXPECT_LE(capped.size(), query("QUERY campaigns").size());
  EXPECT_NE(capped.find("\"distinct_ports\":"), std::string::npos);
}

TEST_F(QueryTest, UnknownReportAndBadFiltersError) {
  EXPECT_NE(query_error("QUERY bogus").find("unknown report"), std::string::npos);
  EXPECT_NE(query_error("QUERY campaigns tool=notatool").find("unknown tool"),
            std::string::npos);
  EXPECT_NE(query_error("QUERY campaigns min_packets=abc").find("non-negative"),
            std::string::npos);
  EXPECT_NE(query_error("QUERY campaigns nope=1").find("unknown filter"),
            std::string::npos);
  EXPECT_NE(query_error("QUERY counters tool=zmap").find("no filters"),
            std::string::npos);
  EXPECT_NE(query_error("QUERY analyze tool=zmap").find("no filters"),
            std::string::npos);
}

}  // namespace
}  // namespace synscan::server
