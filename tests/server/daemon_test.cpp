// Integration tests: a real synscand on a real socket, per test case.
//
// Each harness binds a private Unix socket (or loopback TCP port) in a
// scratch directory and runs `Daemon::serve()` on a background thread;
// clients are the production `server::Client`. Covers the pinned
// byte-equivalence between `QUERY analyze` and the offline analysis
// emission, response ordering under pipelining, the robustness paths
// (garbage frames, oversized frames, idle timeout), graceful shutdown
// via SHUTDOWN and SIGTERM, and the poll(2) fallback event loop.
#include "server/daemon.h"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "core/analysis_session.h"
#include "core/shard.h"
#include "enrich/registry.h"
#include "report/json.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server_test_util.h"

namespace synscan::server {
namespace {

namespace fs = std::filesystem;

class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonConfig config = {})
      : dir_(testing::make_scratch_dir("daemon")) {
    if (config.unix_socket.empty() && !config.tcp) {
      config.unix_socket = (dir_ / "synscand.sock").string();
    }
    daemon_ = std::make_unique<Daemon>(testing::server_telescope(),
                                       enrich::InternetRegistry::synthetic_default(),
                                       std::move(config));
  }

  ~DaemonHarness() {
    if (thread_.joinable()) {
      daemon_->request_shutdown();
      thread_.join();
    }
    daemon_.reset();
    fs::remove_all(dir_);
  }

  void start() {
    thread_ = std::thread([this] { daemon_->serve(); });
  }

  void join() { thread_.join(); }

  [[nodiscard]] Daemon& daemon() { return *daemon_; }
  [[nodiscard]] const fs::path& dir() const { return dir_; }

  [[nodiscard]] Client connect() {
    return Client::connect_unix(daemon_->unix_socket_path());
  }

  /// Writes (once) and returns the fixture capture for this harness.
  [[nodiscard]] std::string capture() {
    const auto path = dir_ / "window.pcap";
    if (!fs::exists(path)) testing::write_server_capture(path);
    return path.string();
  }

 private:
  fs::path dir_;
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
};

/// Body of an OK response; fails the test on an ERR envelope.
std::string ok_body(Client& client, std::string_view command) {
  std::string_view body;
  std::string error;
  const auto response = client.roundtrip(command);
  EXPECT_TRUE(parse_response(response, body, error)) << command << ": " << error;
  return std::string(body);
}

/// ERR message; fails the test on an OK envelope.
std::string err_message(Client& client, std::string_view command) {
  std::string_view body;
  std::string error;
  EXPECT_FALSE(parse_response(client.roundtrip(command), body, error)) << command;
  return error;
}

/// The `analyze --json` bytes of an analysis: counters line, then the
/// campaign JSONL.
std::string report_bytes(const core::AnalyzedCapture& analysis) {
  std::string out;
  report::append_counters_json(out, analysis.result);
  out.push_back('\n');
  report::append_campaigns_jsonl(out, analysis.result.campaigns);
  return out;
}

/// The exact bytes the offline `analyze --json` path writes for this
/// capture at the given worker count.
std::string offline_analyze_bytes(const std::string& capture, std::size_t workers) {
  return report_bytes(core::analyze_capture(capture, testing::server_telescope(),
                                            enrich::InternetRegistry::synthetic_default(),
                                            workers, {}));
}

TEST(Daemon, PingAndStatusOnIdleDaemon) {
  DaemonHarness harness;
  harness.start();
  auto client = harness.connect();
  EXPECT_EQ(ok_body(client, "PING"), "");
  const auto status = ok_body(client, "STATUS");
  EXPECT_NE(status.find("\"state\":\"idle\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"connections\":1"), std::string::npos) << status;
}

TEST(Daemon, QueryBeforeLoadIsAnError) {
  DaemonHarness harness;
  harness.start();
  auto client = harness.connect();
  EXPECT_NE(err_message(client, "QUERY counters").find("no capture loaded"),
            std::string::npos);
}

TEST(Daemon, LoadThenQueryAnalyzeMatchesOfflineBytes) {
  DaemonConfig config;
  config.analysis_workers = 3;
  DaemonHarness harness(std::move(config));
  harness.start();
  const auto capture = harness.capture();
  auto client = harness.connect();

  const auto summary = ok_body(client, "LOAD " + capture);
  EXPECT_NE(summary.find("\"campaigns\":"), std::string::npos) << summary;

  const auto status = ok_body(client, "STATUS");
  EXPECT_NE(status.find("\"state\":\"ready\""), std::string::npos) << status;
  EXPECT_NE(status.find(capture), std::string::npos) << status;

  // The pinned guarantee: same capture, same worker count -> the daemon
  // returns byte-for-byte what the offline analyze emission writes.
  EXPECT_EQ(ok_body(client, "QUERY analyze"), offline_analyze_bytes(capture, 3));
}

TEST(Daemon, PreloadServesQueriesImmediately) {
  DaemonHarness harness;
  const auto capture = harness.capture();
  harness.daemon().preload(capture);
  harness.start();
  auto client = harness.connect();
  EXPECT_EQ(ok_body(client, "QUERY analyze"), offline_analyze_bytes(capture, 2));
  const auto status = ok_body(client, "STATUS");
  EXPECT_NE(status.find("\"loads\":1"), std::string::npos) << status;
}

TEST(Daemon, LoadOfMissingCaptureReportsErrorAndStaysUp) {
  DaemonHarness harness;
  harness.start();
  auto client = harness.connect();
  EXPECT_NE(err_message(client, "LOAD /nonexistent/window.pcap").find("load failed"),
            std::string::npos);
  EXPECT_EQ(ok_body(client, "PING"), "");  // daemon survived the throw
}

TEST(Daemon, RollupMatchesOfflineShardRunThenHitsTheStore) {
  DaemonHarness harness;
  harness.start();
  std::vector<fs::path> shards;
  std::string command = "ROLLUP";
  for (const std::uint64_t seed : {11, 12, 13}) {
    shards.push_back(harness.dir() / ("shard_" + std::to_string(seed) + ".pcap"));
    testing::write_server_capture(shards.back(), 6'000, seed);
    command += " " + shards.back().string();
  }

  // `synscan rollup query --no-rollup-store`: every shard re-analyzed.
  core::ShardRunOptions offline_options;
  offline_options.use_rollup_store = false;
  const auto offline = core::run_shards(
      core::plan_shards(shards), testing::server_telescope(),
      enrich::InternetRegistry::synthetic_default(), core::TrackerConfig{}, offline_options);
  ASSERT_GT(offline.analysis.result.campaigns.size(), 0u);
  const auto hits_and_misses = [](std::uint64_t hits, std::uint64_t misses) {
    return "\"store_hits\":" + std::to_string(hits) +
           ",\"store_misses\":" + std::to_string(misses) + ",";
  };

  auto client = harness.connect();
  const auto built = ok_body(client, command);
  EXPECT_NE(built.find(hits_and_misses(offline.stats.store_hits, offline.stats.store_misses)),
            std::string::npos)
      << built;
  EXPECT_EQ(ok_body(client, "QUERY analyze"), report_bytes(offline.analysis));

  // The first ROLLUP wrote every shard's `.spr`.
  const auto warm = ok_body(client, command);
  EXPECT_NE(warm.find(hits_and_misses(3, 0)), std::string::npos) << warm;
  EXPECT_EQ(ok_body(client, "QUERY analyze"), report_bytes(offline.analysis));
}

TEST(Daemon, FailedLoadOrRollupKeepsTheResidentCapture) {
  DaemonHarness harness;
  harness.start();
  const auto capture = harness.capture();
  auto client = harness.connect();
  (void)ok_body(client, "LOAD " + capture);
  const auto resident = ok_body(client, "QUERY analyze");
  EXPECT_EQ(resident, offline_analyze_bytes(capture, 2));

  const auto missing = (harness.dir() / "missing.pcap").string();
  EXPECT_NE(err_message(client, "LOAD " + missing).find("load failed"), std::string::npos);
  EXPECT_NE(err_message(client, "ROLLUP " + capture + " " + missing).find("rollup failed"),
            std::string::npos);

  EXPECT_EQ(ok_body(client, "QUERY analyze"), resident);
  const auto status = ok_body(client, "STATUS");
  EXPECT_NE(status.find("\"state\":\"ready\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"capture\":\"" + capture + "\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"loads\":1,"), std::string::npos) << status;

  (void)ok_body(client, "LOAD " + capture);
  EXPECT_NE(ok_body(client, "STATUS").find("\"loads\":2,"), std::string::npos);
  EXPECT_EQ(ok_body(client, "QUERY analyze"), resident);
}

TEST(Daemon, PipelinedMixedRequestsComeBackInOrder) {
  DaemonHarness harness;
  harness.daemon().preload(harness.capture());
  harness.start();
  auto client = harness.connect();
  // Pooled (QUERY) and inline (STATUS/PING) responses interleave; the
  // daemon must deliver strictly in request order.
  client.send_command("QUERY counters");
  client.send_command("STATUS");
  client.send_command("PING");
  client.send_command("QUERY counters");
  std::vector<std::string> responses;
  for (int i = 0; i < 4; ++i) responses.push_back(client.read_response());
  std::string_view body;
  std::string error;
  ASSERT_TRUE(parse_response(responses[0], body, error));
  EXPECT_EQ(body.substr(0, 15), "{\"scan_probes\":");
  ASSERT_TRUE(parse_response(responses[1], body, error));
  EXPECT_EQ(body.substr(0, 10), "{\"state\":\"");
  ASSERT_TRUE(parse_response(responses[2], body, error));
  EXPECT_EQ(body, "");
  EXPECT_EQ(responses[3], responses[0]);
}

TEST(Daemon, GarbageFrameGetsErrAndConnectionSurvives) {
  DaemonHarness harness;
  harness.start();
  auto client = harness.connect();
  const auto error = err_message(client, std::string_view("\x01\x02\xff junk", 9));
  EXPECT_NE(error.find("printable"), std::string::npos);
  EXPECT_EQ(ok_body(client, "PING"), "");  // same connection still open
}

TEST(Daemon, OversizedFrameAnswersErrThenCloses) {
  DaemonConfig config;
  config.max_frame_bytes = 512;
  DaemonHarness harness(std::move(config));
  harness.start();
  auto client = harness.connect();
  // A header advertising 1 MiB against the 512-byte cap poisons the
  // stream: one ERR response, then the daemon hangs up.
  const std::string huge_header("\x00\x00\x10\x00", 4);
  (void)::send(client.fd(), huge_header.data(), huge_header.size(), 0);
  std::string_view body;
  std::string error;
  EXPECT_FALSE(parse_response(client.read_response(), body, error));
  EXPECT_NE(error.find("byte limit"), std::string::npos);
  EXPECT_THROW((void)client.read_response(), std::runtime_error);
}

TEST(Daemon, IdleConnectionsAreSweptAfterTimeout) {
  DaemonConfig config;
  config.idle_timeout_ms = 150;
  DaemonHarness harness(std::move(config));
  harness.start();
  auto client = harness.connect();
  EXPECT_EQ(ok_body(client, "PING"), "");
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  // The sweep closed the socket; the next read observes the hangup.
  EXPECT_THROW((void)client.roundtrip("PING"), std::runtime_error);
}

TEST(Daemon, ShutdownCommandDrainsAndStopsServing) {
  DaemonHarness harness;
  harness.start();
  const auto socket_path = harness.daemon().unix_socket_path();
  {
    auto client = harness.connect();
    EXPECT_EQ(ok_body(client, "SHUTDOWN"), "");
  }
  harness.join();  // serve() returned on its own
  EXPECT_THROW((void)Client::connect_unix(socket_path), std::runtime_error);
}

TEST(Daemon, SigtermTriggersGracefulDrain) {
  DaemonConfig config;
  config.install_signal_handlers = true;
  DaemonHarness harness(std::move(config));
  harness.start();
  auto client = harness.connect();
  EXPECT_EQ(ok_body(client, "PING"), "");
  (void)std::raise(SIGTERM);
  harness.join();  // the handler wakes the loop, which drains and exits
}

TEST(Daemon, PollFallbackServesIdenticalBytes) {
  DaemonConfig config;
  config.force_poll = true;
  DaemonHarness harness(std::move(config));
  const auto capture = harness.capture();
  harness.daemon().preload(capture);
  harness.start();
  auto client = harness.connect();
  EXPECT_EQ(ok_body(client, "QUERY analyze"), offline_analyze_bytes(capture, 2));
}

TEST(Daemon, TcpLoopbackRoundtrip) {
  DaemonConfig config;
  config.tcp = true;  // port 0: ephemeral
  DaemonHarness harness(std::move(config));
  harness.start();
  ASSERT_NE(harness.daemon().tcp_port(), 0);
  auto client = Client::connect_tcp("127.0.0.1", harness.daemon().tcp_port());
  EXPECT_EQ(ok_body(client, "PING"), "");
}

TEST(Daemon, ConcurrentClientsAllGetIdenticalBytes) {
  DaemonHarness harness;
  const auto capture = harness.capture();
  harness.daemon().preload(capture);
  harness.start();
  const auto expected = offline_analyze_bytes(capture, 2);
  const auto socket_path = harness.daemon().unix_socket_path();
  std::vector<std::thread> clients;
  std::vector<int> mismatches(6, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    clients.emplace_back([&, t] {
      auto client = Client::connect_unix(socket_path);
      for (int i = 0; i < 10; ++i) {
        std::string_view body;
        std::string error;
        if (!parse_response(client.roundtrip("QUERY analyze"), body, error) ||
            body != expected) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  for (const auto count : mismatches) EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace synscan::server
