// The benchmark's workloads and the pieces two of them share.
#pragma once

#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/analysis_session.h"
#include "core/shard.h"
#include "server/client.h"
#include "server/daemon.h"

namespace perfbench {

/// window2024: one calibrated 2024 window analyzed like
/// `synscan analyze --json` (cold, warm at the CLI's worker count, warm
/// serial).
Outcome run_window(const RunOptions& options, MemProbe& probe);

/// decade-rollup: ten windows in weekly shards, queried like
/// `synscan rollup query` (store build, all-hit query, one-miss update).
Outcome run_decade(const RunOptions& options, MemProbe& probe);

/// The traced run: every layer, one call at a time on one thread, over
/// the workload's own inputs. Reports the per-layer metrics.
Outcome run_tour(const RunOptions& options, MemProbe& probe);

/// One `synscan rollup query` over a shard set: plan, run, emit.
struct RollupQuery {
  std::string report;
  synscan::core::ShardRunStats stats;
  double wall = 0;  ///< seconds from plan to report bytes
  double cpu = 0;   ///< process CPU seconds over the same span
};

/// `workers` 0 is `run_shards`' default (one per hardware thread).
[[nodiscard]] RollupQuery rollup_query(const std::vector<fs::path>& shards, bool use_store,
                                       std::size_t workers = 0);

/// One request of the daemon's fixed query mix.
struct MixQuery {
  std::string command;
  std::string kind;  ///< report name: analyze, campaigns or counters
};

/// The mix the traced run's client cycles through: the full report, two
/// campaign filter scans and the tiny counters object.
[[nodiscard]] const std::vector<MixQuery>& query_mix();

/// The exact response payload (`OK\n` + body) each mix query must get
/// from a daemon holding `analysis`. The analyze body is the offline
/// report bytes; the filters go through the in-process `run_query`.
[[nodiscard]] std::vector<std::string> expected_responses(
    const synscan::core::AnalyzedCapture& analysis);

/// A daemon with the CLI's `serve` defaults, listening on a Unix socket
/// in the working directory (a relative path keeps it under the
/// socket-path length limit wherever the checkout lives).
[[nodiscard]] synscan::server::DaemonConfig daemon_config();
[[nodiscard]] synscan::server::Client connect_daemon();

/// A daemon whose `serve()` runs on its own thread once started; shut
/// down and joined by `stop()` or on destruction.
class ServedDaemon {
 public:
  ServedDaemon();
  ~ServedDaemon() { stop(); }
  ServedDaemon(const ServedDaemon&) = delete;
  ServedDaemon& operator=(const ServedDaemon&) = delete;

  [[nodiscard]] synscan::server::Daemon& daemon() noexcept { return daemon_; }
  void start();
  /// Drains and joins the event loop; returns what `serve()` threw.
  std::string stop();

 private:
  synscan::server::Daemon daemon_;
  std::string error_;  ///< written by the serve thread, read after join
  std::thread thread_;  ///< declared last: joined before the daemon goes
};

}  // namespace perfbench
