// synscand: the resident analysis daemon.
//
// A `Daemon` owns one or two listening sockets (Unix and/or loopback
// TCP), a single-threaded event loop (epoll on Linux, poll(2)
// otherwise), and a small worker pool. Captures load once — through the
// `.spc`-cached batched ingest — into an immutable
// `core::AnalyzedCapture` held behind a shared_ptr; queries snapshot
// that pointer and serialize reports concurrently without locks, so a
// LOAD swapping in a new capture never stalls or corrupts in-flight
// queries.
//
// Threading rules (docs/SYNSCAND.md has the full model):
//   - The event loop thread owns all connection state: buffers, frame
//     decoders, response ordering, the poller. Nothing else touches it.
//   - Workers only (a) read an AnalyzedCapture snapshot and (b) push
//     completed response bytes onto the completion queue, waking the
//     loop through a pipe. A slow query therefore never stalls accepts
//     or other clients' responses.
//   - Responses on one connection are delivered in request order even
//     when the pool finishes them out of order.
//
// Counters publish to the global obs registry under `server.*`
// (docs/OBSERVABILITY.md) when observability is enabled before
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/analysis_session.h"
#include "server/frame.h"

namespace synscan::server {

struct DaemonConfig {
  /// Unix-domain listener path; empty disables it. A stale socket file
  /// from a previous run is unlinked before binding.
  std::string unix_socket;
  /// Enable the loopback TCP listener (binds 127.0.0.1 only — the
  /// protocol has no authentication; port 0 picks an ephemeral port,
  /// readable from `Daemon::tcp_port()` after construction).
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  /// Query worker threads (>= 1). Queries and LOADs run here; the event
  /// loop never blocks on them.
  std::size_t workers = 2;
  /// Worker count passed to `core::analyze_capture` during LOAD. It
  /// changes only how fast a capture loads: reports are byte-identical
  /// at any worker count, offline or resident.
  std::size_t analysis_workers = 2;
  /// Close connections with no traffic and no pending responses after
  /// this long. 0 disables the sweep.
  std::uint64_t idle_timeout_ms = 0;
  /// Graceful-shutdown budget: in-flight queries may finish and flush
  /// for this long before remaining connections are dropped.
  std::uint64_t drain_timeout_ms = 5000;
  /// Request frames larger than this poison the connection: the client
  /// gets one ERR response and the connection closes after it flushes.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Disconnect a client whose unread response backlog exceeds this.
  std::size_t max_outbox_bytes = 64u << 20;
  /// Install SIGINT/SIGTERM handlers for the lifetime of `serve()` that
  /// trigger a graceful drain. At most one daemon per process may set
  /// this.
  bool install_signal_handlers = false;
  /// Use the poll(2) event loop even where epoll is available (the
  /// fallback path is differential-tested through this switch).
  bool force_poll = false;
  /// Ingest switches for LOAD (probe cache, mmap).
  core::IngestOptions ingest;
};

class Daemon {
 public:
  /// Binds the configured listeners and resolves metric cells; throws
  /// `std::runtime_error` when no listener is configured or a socket
  /// call fails. The telescope and registry must outlive the daemon.
  Daemon(const telescope::Telescope& telescope,
         const enrich::InternetRegistry& registry, DaemonConfig config);
  Daemon(const telescope::Telescope&&, const enrich::InternetRegistry&,
         DaemonConfig) = delete;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Analyzes `capture` on the calling thread and makes it the resident
  /// state, exactly as a client LOAD would. Throws on ingest errors.
  void preload(const std::string& capture);

  /// Runs the event loop until SHUTDOWN, `request_shutdown()`, or a
  /// handled signal, then drains and returns. Call at most once.
  void serve();

  /// Triggers the same graceful drain as SHUTDOWN. Safe from any thread
  /// and from before `serve()` (which then returns immediately).
  void request_shutdown();

  /// The bound TCP port (resolved for ephemeral binds), 0 if TCP is off.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept;

  /// The Unix listener path, empty if disabled.
  [[nodiscard]] const std::string& unix_socket_path() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace synscan::server
