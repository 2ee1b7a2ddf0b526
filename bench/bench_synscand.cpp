// synscand load harness: open-loop framed queries against an in-process
// daemon, reported as JSON. CI's perf-smoke job runs it as a
// gross-regression gate (docs/SYNSCAND.md "Load harness").
//
// The harness self-hosts: it generates a campaign-shaped capture,
// starts a `server::Daemon` on a private Unix socket with the capture
// preloaded, and then drives it from one client thread the way mutated
// open-loop generators do — request send times come from an exponential
// inter-arrival schedule at the target rate, independent of how fast
// the daemon answers, and each latency sample is measured from the
// *scheduled* send time so queueing delay counts against the daemon.
// Requests round-robin across `--connections` pipelined non-blocking
// sockets.
//
// The run doubles as a correctness smoke: every response must be an OK
// envelope and every request must be answered during the drain window,
// the daemon must acknowledge SHUTDOWN and exit its serve loop, and the
// binary exits non-zero otherwise. `--check-qps=N` adds a throughput
// gate for CI.
//
// Usage: bench_synscand [--rate=QPS] [--connections=N] [--seconds=S]
//                       [--frames=N] [--seed=N] [--workers=N]
//                       [--io-workers=N] [--command=STR] [--label=STR]
//                       [--check-qps=QPS]
// Output: one JSON object on stdout.
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <poll.h>
#include <random>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "enrich/registry.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/frame.h"
#include "server/protocol.h"

namespace {

using namespace synscan;
using bench::bench_telescope;

using Clock = std::chrono::steady_clock;

struct Options {
  double rate = 4000.0;             ///< target queries per second
  std::uint64_t connections = 16;   ///< pipelined client sockets
  double seconds = 5.0;             ///< send window
  std::uint64_t frames = 200'000;   ///< synthetic capture size
  std::uint64_t seed = 20250809;
  std::uint64_t workers = 3;        ///< daemon analysis workers (preload)
  std::uint64_t io_workers = 2;     ///< daemon query pool
  std::string command = "QUERY counters";
  std::string label = "synscand";
  double check_qps = 0.0;  ///< 0 = no gate
};

Options parse(int argc, char** argv) {
  Options options;
  bench::parse_flags(argc, argv,
                     {{"rate", &options.rate},
                      {"connections", &options.connections},
                      {"seconds", &options.seconds},
                      {"frames", &options.frames},
                      {"seed", &options.seed},
                      {"workers", &options.workers},
                      {"io-workers", &options.io_workers},
                      {"command", &options.command},
                      {"label", &options.label},
                      {"check-qps", &options.check_qps}});
  if (options.rate <= 0.0 || options.connections == 0 || options.seconds <= 0.0) {
    std::fprintf(stderr, "bench_synscand: rate, connections and seconds must be > 0\n");
    std::exit(2);
  }
  return options;
}

/// One pipelined client socket. Responses come back in request order,
/// so scheduled send times queue FIFO and pop as frames complete.
struct LoadConnection {
  int fd = -1;
  std::string out;
  std::size_t out_sent = 0;
  server::FrameDecoder decoder{server::kMaxResponseBytes};
  std::deque<Clock::time_point> scheduled;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Flushes as much buffered output as the socket accepts right now.
/// Returns false on a dead socket.
bool flush(LoadConnection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                             conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  if (conn.out_sent == conn.out.size()) {
    conn.out.clear();
    conn.out_sent = 0;
  }
  return true;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);

  const bench::ScratchDir dir("bench_synscand");
  const auto capture = dir.path() / "workload.pcap";
  bench::write_burst_capture(capture, options.frames, options.seed);
  const auto socket_path = (dir.path() / "synscand.sock").string();

  server::DaemonConfig config;
  config.unix_socket = socket_path;
  config.workers = options.io_workers;
  config.analysis_workers = options.workers;
  server::Daemon daemon(bench_telescope(), enrich::InternetRegistry::synthetic_default(),
                        std::move(config));
  daemon.preload(capture.string());
  std::thread server_thread([&daemon] { daemon.serve(); });

  // Warm the protocol path (and fail fast on a broken daemon) before
  // the measured window opens.
  {
    auto probe_client = server::Client::connect_unix(socket_path);
    std::string_view body;
    std::string error;
    if (!server::parse_response(probe_client.roundtrip(options.command), body, error)) {
      std::fprintf(stderr, "bench_synscand: warmup '%s' failed: %s\n",
                   options.command.c_str(), error.c_str());
      return 1;
    }
  }

  std::vector<LoadConnection> connections(options.connections);
  std::vector<pollfd> pollfds(options.connections);
  for (auto& conn : connections) {
    auto client = server::Client::connect_unix(socket_path);
    conn.fd = client.release();  // the open loop drives the raw fd
    set_nonblocking(conn.fd);
  }

  const std::string request_frame = server::encode_frame(options.command);
  std::mt19937_64 rng(options.seed);
  std::exponential_distribution<double> inter_arrival(options.rate);

  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t bad_responses = 0;
  std::uint64_t response_bytes = 0;
  std::vector<std::uint64_t> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(options.rate * options.seconds) + 16);

  const auto start = Clock::now();
  const auto send_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  auto next_send = start;
  std::string payload;
  std::array<char, 65536> buffer{};

  const auto pump = [&](int timeout_ms) {
    for (std::size_t i = 0; i < connections.size(); ++i) {
      pollfds[i].fd = connections[i].fd;
      pollfds[i].events = static_cast<short>(
          POLLIN | (connections[i].out_sent < connections[i].out.size() ? POLLOUT : 0));
      pollfds[i].revents = 0;
    }
    (void)::poll(pollfds.data(), static_cast<nfds_t>(pollfds.size()), timeout_ms);
    const auto now = Clock::now();
    for (std::size_t i = 0; i < connections.size(); ++i) {
      auto& conn = connections[i];
      if ((pollfds[i].revents & POLLOUT) != 0 && !flush(conn)) {
        std::fprintf(stderr, "bench_synscand: connection died mid-run\n");
        std::exit(1);
      }
      if ((pollfds[i].revents & POLLIN) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buffer.data(), buffer.size(), 0);
        if (n > 0) {
          response_bytes += static_cast<std::uint64_t>(n);
          conn.decoder.absorb(std::string_view(buffer.data(), static_cast<std::size_t>(n)));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        std::fprintf(stderr, "bench_synscand: connection died mid-run\n");
        std::exit(1);
      }
      while (conn.decoder.next(payload) == server::FrameDecoder::Status::kFrame) {
        if (conn.scheduled.empty()) {
          std::fprintf(stderr, "bench_synscand: unsolicited response frame\n");
          std::exit(1);
        }
        const auto scheduled = conn.scheduled.front();
        conn.scheduled.pop_front();
        latencies_us.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(now - scheduled)
                .count()));
        if (payload.rfind("OK", 0) != 0) ++bad_responses;
        ++completed;
      }
    }
  };

  while (Clock::now() < send_deadline) {
    // Open loop: emit every request whose scheduled time has passed,
    // whether or not earlier ones were answered yet.
    while (next_send <= Clock::now() && next_send < send_deadline) {
      auto& conn = connections[sent % connections.size()];
      conn.out.append(request_frame);
      conn.scheduled.push_back(next_send);
      ++sent;
      (void)flush(conn);
      next_send += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(inter_arrival(rng)));
    }
    const auto now = Clock::now();
    const bool due_soon = next_send <= now + std::chrono::milliseconds(1);
    pump(due_soon ? 0 : 1);
  }

  // Drain: everything sent must come back.
  const auto drain_deadline = Clock::now() + std::chrono::seconds(30);
  while (completed < sent && Clock::now() < drain_deadline) pump(5);
  const double duration =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Clean shutdown through the protocol, then join the serve loop.
  {
    auto shutdown_client = server::Client::connect_unix(socket_path);
    std::string_view body;
    std::string error;
    if (!server::parse_response(shutdown_client.roundtrip("SHUTDOWN"), body, error)) {
      std::fprintf(stderr, "bench_synscand: SHUTDOWN rejected: %s\n", error.c_str());
      return 1;
    }
  }
  server_thread.join();
  for (auto& conn : connections) ::close(conn.fd);

  if (completed == 0 || completed < sent || bad_responses != 0) {
    std::fprintf(stderr,
                 "bench_synscand: self-check failed (sent %" PRIu64 ", completed %" PRIu64
                 ", bad %" PRIu64 ")\n",
                 sent, completed, bad_responses);
    return 1;
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  const double qps = static_cast<double>(completed) / duration;
  if (options.check_qps > 0.0 && qps < options.check_qps) {
    std::fprintf(stderr,
                 "bench_synscand: %.0f queries/s below the %.0f gate\n", qps,
                 options.check_qps);
    return 1;
  }

  std::printf(
      "{\"label\":\"%s\",\"rate_target\":%.0f,\"connections\":%" PRIu64 ","
      "\"send_seconds\":%.2f,\"duration_seconds\":%.4f,\"frames\":%" PRIu64 ","
      "\"sent\":%" PRIu64 ",\"completed\":%" PRIu64 ",\"queries_per_sec\":%.0f,"
      "\"response_bytes\":%" PRIu64 ",\"p50_us\":%" PRIu64 ",\"p90_us\":%" PRIu64 ","
      "\"p99_us\":%" PRIu64 ",\"p999_us\":%" PRIu64 ",\"max_us\":%" PRIu64 ","
      "\"peak_rss_kb\":%ld}\n",
      options.label.c_str(), options.rate, options.connections, options.seconds,
      duration, options.frames, sent, completed, qps, response_bytes,
      percentile(latencies_us, 0.50), percentile(latencies_us, 0.90),
      percentile(latencies_us, 0.99), percentile(latencies_us, 0.999),
      latencies_us.empty() ? 0 : latencies_us.back(), bench::peak_rss_kb());
  return 0;
}
