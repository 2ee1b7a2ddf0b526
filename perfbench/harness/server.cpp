// The daemon pieces the traced run's server pass uses: the fixed query
// mix, the responses it must get, and a served daemon.
#include <stdexcept>
#include <thread>

#include "server/protocol.h"
#include "server/query.h"
#include "workloads.h"

namespace perfbench {
namespace core = synscan::core;
namespace server = synscan::server;

const std::vector<MixQuery>& query_mix() {
  static const std::vector<MixQuery> mix = {
      {"QUERY analyze", "analyze"},
      {"QUERY campaigns tool=zmap", "campaigns"},
      {"QUERY campaigns min_packets=1000", "campaigns"},
      {"QUERY counters", "counters"},
  };
  return mix;
}

std::vector<std::string> expected_responses(const core::AnalyzedCapture& analysis) {
  std::vector<std::string> expected;
  for (const auto& query : query_mix()) {
    std::string payload(server::kOkHeader);
    if (query.kind == "analyze") {
      payload += emit_report(analysis.result);
    } else {
      server::Request request;
      std::string error;
      if (!server::parse_request(query.command, request, error) ||
          !server::run_query(analysis, request, payload, error)) {
        throw std::runtime_error("bad mix query: " + error);
      }
    }
    expected.push_back(std::move(payload));
  }
  return expected;
}

server::DaemonConfig daemon_config() {
  server::DaemonConfig config;
  config.unix_socket = "perfbench.sock";
  config.workers = 2;  // `synscan serve` default --io-workers
  config.analysis_workers = default_workers();
  return config;
}

server::Client connect_daemon() {
  return server::Client::connect_unix(daemon_config().unix_socket);
}

ServedDaemon::ServedDaemon() : daemon_(bench_telescope(), bench_registry(), daemon_config()) {}

void ServedDaemon::start() {
  thread_ = std::thread([this] {
    try {
      daemon_.serve();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  });
}

std::string ServedDaemon::stop() {
  daemon_.request_shutdown();
  if (thread_.joinable()) thread_.join();
  return error_;
}

}  // namespace perfbench
