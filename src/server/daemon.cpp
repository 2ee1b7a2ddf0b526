#include "server/daemon.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <stdexcept>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <sys/un.h>
#include <system_error>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/shard.h"
#include "core/sync.h"
#include "obs/metrics.h"
#include "report/json.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/query.h"

namespace synscan::server {
namespace {

using Clock = std::chrono::steady_clock;

/// Graceful-shutdown budget: in-flight queries may finish and flush for
/// this long before the remaining connections are dropped.
constexpr std::chrono::milliseconds kDrainTimeout{5000};
/// Disconnect a client whose unread response backlog exceeds this.
constexpr std::size_t kMaxOutboxBytes = std::size_t{64} << 20;

[[noreturn]] void throw_errno(const std::string& what) {
  // std::system_error formats the errno message itself; std::strerror
  // is not thread-safe (shared static buffer, concurrency-mt-unsafe).
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_cloexec(int fd) { (void)::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Signal -> event loop bridge. The handler may only touch lock-free
/// state: it flags the request and writes one byte into the daemon's
/// wake pipe. Only one daemon per process may install handlers, which
/// is why these are globals rather than Impl members.
///
/// Async-signal-safety constraints (the handler can interrupt any
/// thread, including one holding a lock):
///   - no locks, no allocation, no I/O beyond the async-signal-safe
///     write(2) — which is also what makes the wakeup reliable when the
///     loop is parked in poll;
///   - both atomics must be lock-free, or the "atomic" op could take an
///     internal lock the interrupted thread already holds (deadlock).
///     The static_asserts make that assumption a compile-time fact.
///   - `g_signal_pending` is relaxed: the pipe write/read pair already
///     orders the flag store before the loop's `exchange`, and the
///     loop also polls the flag every timeout tick.
///   - `g_signal_wake_fd` is published with release and read with
///     acquire so a handler running on another thread sees the pipe fd
///     only after the pipe is fully set up.
std::atomic<bool> g_signal_pending{false};
std::atomic<int> g_signal_wake_fd{-1};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free pending flag");
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free wake-fd cell");

void on_signal(int /*signum*/) {
  g_signal_pending.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// A response finished out of request order, parked until its turn.
struct ReadyResponse {
  std::uint64_t seq = 0;
  std::string frame;
};

struct Connection {
  int fd = -1;
  std::uint32_t slot = 0;
  /// Distinguishes this connection from an earlier occupant of the same
  /// slot; completions carry {slot, id} and are dropped on mismatch.
  std::uint64_t id = 0;
  FrameDecoder decoder;
  std::string outbox;
  std::size_t outbox_sent = 0;
  /// Requests read so far; each frame takes the next sequence number.
  std::uint64_t next_seq = 0;
  /// The sequence number whose response goes out next.
  std::uint64_t next_response = 0;
  std::vector<ReadyResponse> ready;
  Clock::time_point last_activity{};
  /// Flush pending responses, then close (poisoned framing, SHUTDOWN).
  bool closing = false;

  [[nodiscard]] bool responses_pending() const noexcept {
    return next_response != next_seq || outbox.size() != outbox_sent;
  }
};

/// What one fd reported this iteration. Translated eagerly out of the
/// pollfd array so that closing other fds mid-batch cannot dangle.
struct PollEvent {
  int fd = -1;
  Connection* conn = nullptr;  ///< null for the listeners and the wake pipe
  bool readable = false;
  bool writable = false;
  bool closed = false;
};

struct Job {
  std::uint32_t slot = 0;
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  Request request;
  Clock::time_point received{};
};

struct Completion {
  std::uint32_t slot = 0;
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::string frame;
  std::uint64_t latency_us = 0;
  bool is_query = false;
  bool ok = false;
};

/// The loaded capture plus its analysis, immutable once published.
struct ResidentCapture {
  ResidentCapture(std::string capture_path, core::AnalyzedCapture capture_analysis)
      : path(std::move(capture_path)), analysis(std::move(capture_analysis)) {}

  std::string path;
  core::AnalyzedCapture analysis;
};

/// Swap cell for the resident capture pointer: workers take snapshots,
/// loads publish replacements. The shared_ptr itself is the guarded
/// state; the pointed-to capture is immutable once published.
class SnapshotCell {
 public:
  [[nodiscard]] std::shared_ptr<const ResidentCapture> snapshot() const
      SYNSCAN_EXCLUDES(mutex_) {
    const core::MutexLock lock(mutex_);
    return state_;
  }

  void publish(std::shared_ptr<const ResidentCapture> next) SYNSCAN_EXCLUDES(mutex_) {
    const core::MutexLock lock(mutex_);
    state_ = std::move(next);
  }

 private:
  mutable core::Mutex mutex_;
  std::shared_ptr<const ResidentCapture> state_ SYNSCAN_GUARDED_BY(mutex_);
};

/// Loop -> worker-pool job queue (single producer, many consumers).
class JobQueue {
 public:
  /// Returns the queue depth right after the push, for the depth gauge.
  std::size_t push(Job job) SYNSCAN_EXCLUDES(mutex_) {
    std::size_t depth = 0;
    {
      const core::MutexLock lock(mutex_);
      jobs_.push_back(std::move(job));
      depth = jobs_.size();
    }
    ready_.notify_one();
    return depth;
  }

  /// Blocks until a job arrives or the queue stops; false means stopped
  /// and drained (the worker exits). Jobs enqueued before stop() are
  /// still handed out, so accepted requests get answered.
  [[nodiscard]] bool pop(Job& out) SYNSCAN_EXCLUDES(mutex_) {
    core::UniqueLock lock(mutex_);
    while (jobs_.empty() && !stop_) ready_.wait(lock);
    if (jobs_.empty()) return false;  // only reachable with stop_ set
    out = std::move(jobs_.front());
    jobs_.pop_front();
    return true;
  }

  void stop() SYNSCAN_EXCLUDES(mutex_) {
    {
      const core::MutexLock lock(mutex_);
      stop_ = true;
    }
    ready_.notify_all();
  }

 private:
  core::Mutex mutex_;
  core::CondVar ready_;
  std::deque<Job> jobs_ SYNSCAN_GUARDED_BY(mutex_);
  bool stop_ SYNSCAN_GUARDED_BY(mutex_) = false;
};

/// Workers park finished responses here; the loop thread swaps out the
/// whole batch once per iteration (one lock, no per-item traffic).
class CompletionQueue {
 public:
  void push(Completion completion) SYNSCAN_EXCLUDES(mutex_) {
    const core::MutexLock lock(mutex_);
    completions_.push_back(std::move(completion));
  }

  /// Swaps the pending batch into `out` (expected empty on entry).
  void drain_into(std::vector<Completion>& out) SYNSCAN_EXCLUDES(mutex_) {
    const core::MutexLock lock(mutex_);
    out.swap(completions_);
  }

 private:
  core::Mutex mutex_;
  std::vector<Completion> completions_ SYNSCAN_GUARDED_BY(mutex_);
};

}  // namespace

struct Daemon::Impl {
  Impl(const telescope::Telescope& scope, const enrich::InternetRegistry& internet,
       DaemonConfig daemon_config)
      : config(std::move(daemon_config)), telescope(&scope), registry(&internet) {
    if (config.unix_socket.empty() && !config.tcp) {
      throw std::runtime_error("synscand: no listener configured (need unix socket or tcp)");
    }
    if (config.workers == 0) config.workers = 1;
    if (obs::enabled()) {
      auto& metrics = obs::MetricsRegistry::global();
      obs_accepts = &metrics.counter("server.accepts");
      obs_frames = &metrics.counter("server.frames");
      obs_queries = &metrics.counter("server.queries");
      obs_errors = &metrics.counter("server.errors");
      obs_bytes_in = &metrics.counter("server.bytes_in");
      obs_bytes_out = &metrics.counter("server.bytes_out");
      obs_rejected = &metrics.counter("server.rejected_frames");
      obs_idle_closes = &metrics.counter("server.idle_closes");
      obs_loads = &metrics.counter("server.loads");
      obs_connections = &metrics.gauge("server.connections");
      obs_queue_depth = &metrics.gauge("server.queue_depth");
      obs_latency = &metrics.histogram("server.query_latency_us");
    }
    open_listeners();
    open_wake_pipe();
    started = Clock::now();
  }

  ~Impl() {
    close_fd(unix_fd);
    close_fd(tcp_fd);
    close_fd(wake_read);
    close_fd(wake_write);
    if (!config.unix_socket.empty()) (void)::unlink(config.unix_socket.c_str());
  }

  // ---- setup -------------------------------------------------------

  static void close_fd(int& fd) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  void open_listeners() {
    if (!config.unix_socket.empty()) {
      sockaddr_un address{};
      address.sun_family = AF_UNIX;
      if (config.unix_socket.size() >= sizeof(address.sun_path)) {
        throw std::runtime_error("synscand: unix socket path too long: " +
                                 config.unix_socket);
      }
      std::memcpy(address.sun_path, config.unix_socket.c_str(),
                  config.unix_socket.size() + 1);
      unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (unix_fd < 0) throw_errno("socket(AF_UNIX)");
      (void)::unlink(config.unix_socket.c_str());
      if (::bind(unix_fd, reinterpret_cast<const sockaddr*>(&address),
                 sizeof(address)) < 0) {
        throw_errno("bind(" + config.unix_socket + ")");
      }
      if (::listen(unix_fd, 256) < 0) throw_errno("listen(unix)");
      set_nonblocking(unix_fd);
      set_cloexec(unix_fd);
    }
    if (config.tcp) {
      tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (tcp_fd < 0) throw_errno("socket(AF_INET)");
      const int one = 1;
      (void)::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in address{};
      address.sin_family = AF_INET;
      address.sin_port = htons(config.tcp_port);
      // Loopback only: the protocol has no authentication.
      address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::bind(tcp_fd, reinterpret_cast<const sockaddr*>(&address),
                 sizeof(address)) < 0) {
        throw_errno("bind(127.0.0.1)");
      }
      if (::listen(tcp_fd, 256) < 0) throw_errno("listen(tcp)");
      sockaddr_in bound{};
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
        config.tcp_port = ntohs(bound.sin_port);
      }
      set_nonblocking(tcp_fd);
      set_cloexec(tcp_fd);
    }
  }

  void open_wake_pipe() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) < 0) throw_errno("pipe");
    wake_read = fds[0];
    wake_write = fds[1];
    set_nonblocking(wake_read);
    set_nonblocking(wake_write);
    set_cloexec(wake_read);
    set_cloexec(wake_write);
  }

  void wake() {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  // ---- resident state ----------------------------------------------

  std::shared_ptr<const ResidentCapture> state_snapshot() {
    return resident_state.snapshot();
  }

  struct Loaded {
    std::shared_ptr<const ResidentCapture> resident;
    core::ShardRunStats stats;
  };

  /// The one way captures become resident: a `run_shards` plan over
  /// `paths`, published as the new snapshot. LOAD and preload pass one
  /// capture with the store off, so LOAD writes no `.spr`; ROLLUP passes
  /// its set with the store on. Runs on a worker, or on the caller's
  /// thread for preload. Throws on failure and leaves the old snapshot.
  Loaded make_resident(const std::vector<std::string>& paths, bool use_store) {
    const std::vector<std::filesystem::path> captures(paths.begin(), paths.end());
    core::ShardRunOptions options;
    options.workers = config.analysis_workers;
    options.use_rollup_store = use_store;
    options.ingest = config.ingest;
    auto run = core::run_shards(core::plan_shards(captures), *telescope, *registry,
                                core::TrackerConfig{}, options);
    std::string joined;
    for (const auto& path : paths) {
      if (!joined.empty()) joined.push_back(' ');
      joined.append(path);
    }
    auto resident = std::make_shared<const ResidentCapture>(std::move(joined),
                                                            std::move(run.analysis));
    resident_state.publish(resident);
    if (obs_loads != nullptr) obs_loads->add();
    return {std::move(resident), run.stats};
  }

  static std::string rollup_summary(const Loaded& loaded, std::size_t captures) {
    const auto& analysis = loaded.resident->analysis;
    std::string body;
    body.append("{\"captures\":");
    body.append(std::to_string(captures));
    body.append(",\"store_hits\":");
    body.append(std::to_string(loaded.stats.store_hits));
    body.append(",\"store_misses\":");
    body.append(std::to_string(loaded.stats.store_misses));
    body.append(",\"frames\":");
    body.append(std::to_string(analysis.frames));
    body.append(",\"scan_probes\":");
    body.append(std::to_string(analysis.result.sensor.scan_probes));
    body.append(",\"campaigns\":");
    body.append(std::to_string(analysis.result.campaigns.size()));
    body.append(",\"from_cache\":");
    body.append(analysis.from_cache ? "true" : "false");
    body.append("}\n");
    return body;
  }

  static std::string load_summary(const ResidentCapture& resident) {
    std::string body;
    body.append("{\"capture\":\"");
    body.append(report::json_escape(resident.path));
    body.append("\",\"frames\":");
    body.append(std::to_string(resident.analysis.frames));
    body.append(",\"scan_probes\":");
    body.append(std::to_string(resident.analysis.result.sensor.scan_probes));
    body.append(",\"campaigns\":");
    body.append(std::to_string(resident.analysis.result.campaigns.size()));
    body.append(",\"from_cache\":");
    body.append(resident.analysis.from_cache ? "true" : "false");
    body.append("}\n");
    return body;
  }

  std::string status_payload() {
    const auto snapshot = state_snapshot();
    std::string out(kOkHeader);
    out.append("{\"state\":\"");
    if (loading.load(std::memory_order_relaxed)) {
      out.append("loading");
    } else {
      out.append(snapshot ? "ready" : "idle");
    }
    out.append("\",\"capture\":\"");
    if (snapshot) out.append(report::json_escape(snapshot->path));
    out.append("\",\"frames\":");
    out.append(std::to_string(snapshot ? snapshot->analysis.frames : 0));
    out.append(",\"scan_probes\":");
    out.append(std::to_string(snapshot ? snapshot->analysis.result.sensor.scan_probes : 0));
    out.append(",\"campaigns\":");
    out.append(std::to_string(snapshot ? snapshot->analysis.result.campaigns.size() : 0));
    out.append(",\"from_cache\":");
    out.append(snapshot && snapshot->analysis.from_cache ? "true" : "false");
    out.append(",\"connections\":");
    out.append(std::to_string(open_connections));
    out.append(",\"queries_served\":");
    out.append(std::to_string(queries));
    out.append(",\"loads\":");
    out.append(std::to_string(loads));
    out.append(",\"uptime_ms\":");
    out.append(std::to_string(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started)
            .count())));
    out.append("}\n");
    return out;
  }

  // ---- worker pool -------------------------------------------------

  void start_workers() {
    workers.reserve(config.workers);
    for (std::size_t i = 0; i < config.workers; ++i) {
      workers.emplace_back([this] { worker_main(); });
    }
  }

  void stop_workers() {
    job_queue.stop();
    for (auto& worker : workers) {
      if (worker.joinable()) worker.join();
    }
    workers.clear();
  }

  void enqueue_job(Job job) {
    in_flight.fetch_add(1, std::memory_order_relaxed);
    const auto depth = job_queue.push(std::move(job));
    if (obs_queue_depth != nullptr) {
      obs_queue_depth->record_max(static_cast<std::int64_t>(depth));
    }
  }

  void worker_main() {
    for (;;) {
      Job job;
      if (!job_queue.pop(job)) return;
      Completion completion;
      completion.slot = job.slot;
      completion.conn_id = job.conn_id;
      completion.seq = job.seq;
      std::string payload;
      if (job.request.kind == RequestKind::kQuery) {
        completion.is_query = true;
        const auto snapshot = state_snapshot();
        if (!snapshot) {
          payload = error_response("no capture loaded (use LOAD <path>)");
        } else {
          payload.assign(kOkHeader);
          std::string error;
          if (run_query(snapshot->analysis, job.request, payload, error)) {
            completion.ok = true;
          } else {
            payload = error_response(error);
          }
        }
      } else {  // LOAD or ROLLUP
        const bool rollup = job.request.kind == RequestKind::kRollup;
        try {
          const auto loaded = rollup ? make_resident(job.request.paths, true)
                                     : make_resident({job.request.argument}, false);
          payload.assign(kOkHeader);
          payload.append(rollup ? rollup_summary(loaded, job.request.paths.size())
                                : load_summary(*loaded.resident));
          completion.ok = true;
        } catch (const std::exception& e) {
          payload = error_response(std::string(rollup ? "rollup failed: " : "load failed: ") +
                                   e.what());
        }
        loading.store(false, std::memory_order_release);
      }
      completion.latency_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                job.received)
              .count());
      if (completion.is_query && obs_latency != nullptr) {
        obs_latency->observe(completion.latency_us);
      }
      completion.frame = encode_frame(payload);
      completion_queue.push(std::move(completion));
      wake();
    }
  }

  // ---- event loop --------------------------------------------------

  void serve() {
    start_workers();
    struct sigaction previous_int {};
    struct sigaction previous_term {};
    const bool signals = config.install_signal_handlers;
    if (signals) {
      g_signal_pending.store(false, std::memory_order_relaxed);
      // Release pairs with the handler's acquire load: a handler that
      // sees the fd also sees the fully constructed pipe behind it.
      g_signal_wake_fd.store(wake_write, std::memory_order_release);
      struct sigaction action {};
      action.sa_handler = on_signal;
      (void)sigemptyset(&action.sa_mask);
      (void)::sigaction(SIGINT, &action, &previous_int);
      (void)::sigaction(SIGTERM, &action, &previous_term);
    }

    std::vector<PollEvent> events;
    auto last_sweep = Clock::now();
    for (;;) {
      wait(events, 250);
      if (shutdown_requested.exchange(false) ||
          (signals && g_signal_pending.exchange(false))) {
        begin_shutdown();
      }
      for (const auto& event : events) {
        if (event.fd == wake_read) {
          drain_wake_pipe();
        } else if (event.conn == nullptr) {
          // A listener, unless SHUTDOWN closed it earlier this iteration.
          if (event.fd == unix_fd || event.fd == tcp_fd) accept_pending(event.fd);
        } else {
          auto* conn = event.conn;
          if (conn->fd < 0) continue;  // closed earlier this iteration
          if (event.closed) {
            close_connection(*conn);
            continue;
          }
          if (event.readable) handle_readable(*conn);
          if (conn->fd >= 0 && event.writable) flush_outbox(*conn);
        }
      }
      drain_completions();
      const auto now = Clock::now();
      if (now - last_sweep >= std::chrono::milliseconds(250)) {
        last_sweep = now;
        sweep_idle(now);
      }
      if (draining) {
        sweep_drained();
        const bool drained =
            open_connections == 0 && in_flight.load(std::memory_order_relaxed) == 0;
        if (drained || now >= drain_deadline) break;
      }
      reap_dead_slots();
    }

    stop_workers();
    for (auto& conn : connections) {
      if (conn && conn->fd >= 0) close_connection(*conn);
    }
    reap_dead_slots();

    if (signals) {
      g_signal_wake_fd.store(-1, std::memory_order_release);
      (void)::sigaction(SIGINT, &previous_int, nullptr);
      (void)::sigaction(SIGTERM, &previous_term, nullptr);
    }
  }

  void begin_shutdown() {
    if (draining) return;
    draining = true;
    drain_deadline = Clock::now() + kDrainTimeout;
    close_fd(unix_fd);
    close_fd(tcp_fd);
  }

  /// Waits up to `timeout_ms` for the wake pipe, the listeners and every
  /// open connection — writable interest while its outbox holds unsent
  /// bytes — and translates what fired into `events`. The pollfd array
  /// is rebuilt from that state on each wait, so nothing registers or
  /// unregisters an fd. poll(2) is level-triggered: a socket holding
  /// more bytes is reported again on the next wait.
  void wait(std::vector<PollEvent>& events, int timeout_ms) {
    events.clear();
    pollfds.clear();
    polled.clear();
    const auto watch = [&](int fd, Connection* conn, bool want_write) {
      pollfd entry{};
      entry.fd = fd;
      entry.events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
      pollfds.push_back(entry);
      polled.push_back(conn);
    };
    watch(wake_read, nullptr, false);
    if (unix_fd >= 0) watch(unix_fd, nullptr, false);
    if (tcp_fd >= 0) watch(tcp_fd, nullptr, false);
    for (const auto& conn : connections) {
      if (conn && conn->fd >= 0) {
        watch(conn->fd, conn.get(), conn->outbox_sent < conn->outbox.size());
      }
    }
    const int count =
        ::poll(pollfds.data(), static_cast<nfds_t>(pollfds.size()), timeout_ms);
    if (count <= 0) return;
    for (std::size_t i = 0; i < pollfds.size(); ++i) {
      const auto revents = pollfds[i].revents;
      if (revents == 0) continue;
      PollEvent event;
      event.fd = pollfds[i].fd;
      event.conn = polled[i];
      event.readable = (revents & POLLIN) != 0;
      event.writable = (revents & POLLOUT) != 0;
      event.closed = (revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
      events.push_back(event);
    }
  }

  void drain_wake_pipe() {
    std::array<char, 256> sink{};
    while (::read(wake_read, sink.data(), sink.size()) > 0) {
    }
  }

  void accept_pending(int listener) {
    for (;;) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN or a transient accept failure: retry next event
      }
      if (draining) {
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      set_cloexec(fd);
      std::uint32_t slot = 0;
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
      } else {
        slot = static_cast<std::uint32_t>(connections.size());
        connections.emplace_back();
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->slot = slot;
      conn->id = next_conn_id++;
      conn->last_activity = Clock::now();
      connections[slot] = std::move(conn);
      ++open_connections;
      if (obs_accepts != nullptr) obs_accepts->add();
      if (obs_connections != nullptr) {
        obs_connections->store(static_cast<std::int64_t>(open_connections));
      }
    }
  }

  void close_connection(Connection& conn) {
    ::close(conn.fd);
    conn.fd = -1;
    --open_connections;
    dead_slots.push_back(conn.slot);
    if (obs_connections != nullptr) {
      obs_connections->store(static_cast<std::int64_t>(open_connections));
    }
  }

  /// Frees Connection objects closed during this loop iteration. Events
  /// translated earlier in the iteration may still point at them, so
  /// destruction waits until the batch is fully processed.
  void reap_dead_slots() {
    for (const auto slot : dead_slots) {
      connections[slot].reset();
      free_slots.push_back(slot);
    }
    dead_slots.clear();
  }

  /// Reads one chunk, then answers every frame it completed and flushes.
  /// poll(2) is level-triggered, so a socket holding more bytes is
  /// reported again on the next iteration. One chunk per event
  /// keeps a peer that never stops sending from holding the loop, bounds
  /// the reassembly buffer to one chunk plus a partial frame, and lets
  /// `flush_outbox` check the outbox cap after each chunk's replies.
  void handle_readable(Connection& conn) {
    std::array<char, 16384> buffer{};
    const ssize_t n = ::recv(conn.fd, buffer.data(), buffer.size(), 0);
    if (n == 0) {
      // Peer closed its end; any undelivered responses have no reader.
      close_connection(conn);
      return;
    }
    if (n < 0) {
      // EINTR and EAGAIN: poll reports the socket again.
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        close_connection(conn);
      }
      return;
    }
    conn.last_activity = Clock::now();
    if (obs_bytes_in != nullptr) obs_bytes_in->add(static_cast<std::uint64_t>(n));
    conn.decoder.absorb(std::string_view(buffer.data(), static_cast<std::size_t>(n)));
    std::string payload;
    while (!conn.closing) {
      const auto status = conn.decoder.next(payload);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kTooLarge) {
        if (obs_errors != nullptr) obs_errors->add();
        if (obs_rejected != nullptr) obs_rejected->add();
        respond_inline(conn,
                       error_response("frame exceeds " +
                                      std::to_string(conn.decoder.max_payload_bytes()) +
                                      " byte limit"));
        conn.closing = true;
        break;
      }
      handle_frame(conn, payload);
      if (conn.fd < 0) return;
    }
    flush_outbox(conn);
  }

  void handle_frame(Connection& conn, std::string_view payload) {
    if (obs_frames != nullptr) obs_frames->add();
    Request request;
    std::string error;
    if (!parse_request(payload, request, error)) {
      if (obs_errors != nullptr) obs_errors->add();
      respond_inline(conn, error_response(error));
      return;
    }
    switch (request.kind) {
      case RequestKind::kPing:
        respond_inline(conn, std::string(kOkHeader));
        break;
      case RequestKind::kStatus:
        respond_inline(conn, status_payload());
        break;
      case RequestKind::kShutdown:
        respond_inline(conn, std::string(kOkHeader));
        conn.closing = true;
        begin_shutdown();
        break;
      case RequestKind::kLoad:
      case RequestKind::kRollup:
        if (draining) {
          if (obs_errors != nullptr) obs_errors->add();
          respond_inline(conn, error_response("daemon is shutting down"));
        } else if (loading.exchange(true, std::memory_order_acq_rel)) {
          if (obs_errors != nullptr) obs_errors->add();
          respond_inline(conn, error_response("a load is already in progress"));
        } else {
          enqueue_request(conn, std::move(request));
        }
        break;
      case RequestKind::kQuery:
        enqueue_request(conn, std::move(request));
        break;
    }
  }

  void enqueue_request(Connection& conn, Request request) {
    Job job;
    job.slot = conn.slot;
    job.conn_id = conn.id;
    job.seq = conn.next_seq++;
    job.request = std::move(request);
    job.received = Clock::now();
    enqueue_job(std::move(job));
  }

  /// Answers a request on the loop thread (PING, STATUS, errors). Goes
  /// through the same sequencing as worker completions so interleaved
  /// inline and pooled responses still come out in request order.
  void respond_inline(Connection& conn, std::string payload) {
    const auto seq = conn.next_seq++;
    deliver(conn, seq, encode_frame(payload));
  }

  void deliver(Connection& conn, std::uint64_t seq, std::string frame) {
    if (seq != conn.next_response) {
      conn.ready.push_back(ReadyResponse{seq, std::move(frame)});
      return;
    }
    conn.outbox.append(frame);
    ++conn.next_response;
    bool advanced = true;
    while (advanced && !conn.ready.empty()) {
      advanced = false;
      for (std::size_t i = 0; i < conn.ready.size(); ++i) {
        if (conn.ready[i].seq != conn.next_response) continue;
        conn.outbox.append(conn.ready[i].frame);
        ++conn.next_response;
        conn.ready.erase(conn.ready.begin() + static_cast<std::ptrdiff_t>(i));
        advanced = true;
        break;
      }
    }
  }

  void drain_completions() {
    std::vector<Completion> batch;
    completion_queue.drain_into(batch);
    for (auto& completion : batch) {
      in_flight.fetch_sub(1, std::memory_order_relaxed);
      if (completion.is_query) {
        if (completion.ok) {
          ++queries;
          if (obs_queries != nullptr) obs_queries->add();
        } else {
          if (obs_errors != nullptr) obs_errors->add();
        }
      } else if (completion.ok) {
        ++loads;
      } else {
        if (obs_errors != nullptr) obs_errors->add();
      }
      Connection* conn = completion.slot < connections.size()
                             ? connections[completion.slot].get()
                             : nullptr;
      if (conn == nullptr || conn->id != completion.conn_id || conn->fd < 0) {
        continue;  // the client went away while its query ran
      }
      deliver(*conn, completion.seq, std::move(completion.frame));
      flush_outbox(*conn);
    }
  }

  void flush_outbox(Connection& conn) {
    while (conn.outbox_sent < conn.outbox.size()) {
      const ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outbox_sent,
                               conn.outbox.size() - conn.outbox_sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbox_sent += static_cast<std::size_t>(n);
        if (obs_bytes_out != nullptr) obs_bytes_out->add(static_cast<std::uint64_t>(n));
        conn.last_activity = Clock::now();
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn);
      return;
    }
    if (conn.outbox_sent == conn.outbox.size()) {
      conn.outbox.clear();
      conn.outbox_sent = 0;
      if (conn.closing && !conn.responses_pending()) close_connection(conn);
      return;
    }
    if (conn.outbox.size() - conn.outbox_sent > kMaxOutboxBytes) {
      // The client stopped reading; shedding it beats buffering forever.
      if (obs_errors != nullptr) obs_errors->add();
      close_connection(conn);
    }
  }

  void sweep_idle(Clock::time_point now) {
    if (config.idle_timeout_ms == 0) return;
    const auto timeout = std::chrono::milliseconds(config.idle_timeout_ms);
    for (const auto& conn : connections) {
      if (!conn || conn->fd < 0) continue;
      if (conn->responses_pending()) continue;
      if (now - conn->last_activity >= timeout) {
        if (obs_idle_closes != nullptr) obs_idle_closes->add();
        close_connection(*conn);
      }
    }
  }

  /// During a drain, connections with nothing left to say are closed
  /// regardless of idle configuration.
  void sweep_drained() {
    for (const auto& conn : connections) {
      if (!conn || conn->fd < 0) continue;
      if (!conn->responses_pending()) close_connection(*conn);
    }
  }

  // ---- data --------------------------------------------------------

  DaemonConfig config;
  const telescope::Telescope* telescope;
  const enrich::InternetRegistry* registry;

  int unix_fd = -1;
  int tcp_fd = -1;
  int wake_read = -1;
  int wake_write = -1;

  // Shared state crossing the loop/worker boundary lives in the three
  // annotated containers below; Impl itself owns no mutex, so nothing
  // here can be touched from the wrong side without the lock.
  SnapshotCell resident_state;
  std::atomic<bool> loading{false};

  JobQueue job_queue;
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> in_flight{0};

  CompletionQueue completion_queue;

  // Everything below is owned by the event loop thread.
  std::vector<pollfd> pollfds;      ///< scratch: the fds of one wait
  std::vector<Connection*> polled;  ///< scratch: each pollfd's connection
  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::uint32_t> free_slots;
  std::vector<std::uint32_t> dead_slots;
  std::size_t open_connections = 0;
  std::uint64_t next_conn_id = 1;
  bool draining = false;
  Clock::time_point drain_deadline{};

  std::atomic<bool> shutdown_requested{false};

  // Plain tallies mirrored into obs cells; STATUS reads these so the
  // daemon reports activity even with observability off.
  std::uint64_t queries = 0;
  std::uint64_t loads = 0;
  Clock::time_point started{};

  obs::Counter* obs_accepts = nullptr;
  obs::Counter* obs_frames = nullptr;
  obs::Counter* obs_queries = nullptr;
  obs::Counter* obs_errors = nullptr;
  obs::Counter* obs_bytes_in = nullptr;
  obs::Counter* obs_bytes_out = nullptr;
  obs::Counter* obs_rejected = nullptr;
  obs::Counter* obs_idle_closes = nullptr;
  obs::Counter* obs_loads = nullptr;
  obs::Gauge* obs_connections = nullptr;
  obs::Gauge* obs_queue_depth = nullptr;
  obs::Histogram* obs_latency = nullptr;
};

Daemon::Daemon(const telescope::Telescope& telescope,
               const enrich::InternetRegistry& registry, DaemonConfig config)
    : impl_(std::make_unique<Impl>(telescope, registry, std::move(config))) {}

Daemon::~Daemon() = default;

void Daemon::preload(const std::string& capture) {
  (void)impl_->make_resident({capture}, false);
  ++impl_->loads;
}

void Daemon::serve() { impl_->serve(); }

void Daemon::request_shutdown() {
  impl_->shutdown_requested.store(true);
  impl_->wake();
}

std::uint16_t Daemon::tcp_port() const noexcept {
  return impl_->config.tcp ? impl_->config.tcp_port : 0;
}

const std::string& Daemon::unix_socket_path() const noexcept {
  return impl_->config.unix_socket;
}

}  // namespace synscan::server
