#include "cli/commands.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/analysis_campaigns.h"
#include "core/analysis_geo.h"
#include "core/analysis_session.h"
#include "core/analysis_summary.h"
#include "core/analysis_types.h"
#include "core/flat_map.h"
#include "core/ingest.h"
#include "core/rollup_store.h"
#include "core/shard.h"
#include "fingerprint/classifier.h"
#include "obs/run_report.h"
#include "pcap/pcap.h"
#include "pcap/pcapng.h"
#include "report/json.h"
#include "report/table.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"

namespace synscan::cli {
namespace {

/// Minimal flag parser: "--key=value" flags plus positional arguments.
class Args {
 public:
  explicit Args(const std::vector<std::string>& raw) {
    for (const auto& arg : raw) {
      if (arg.rfind("--", 0) == 0) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
          flags_[arg.substr(2)] = "true";
        } else {
          flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  [[nodiscard]] std::optional<std::string> flag(const std::string& key) const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? std::nullopt : std::optional<std::string>(it->second);
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto value = flag(key);
    return value ? std::stod(*value) : fallback;
  }
  /// The flag as a whole base-10 integer in [min, max], or `fallback` when
  /// absent; anything else throws `std::invalid_argument` naming the flag.
  [[nodiscard]] std::uint64_t integer(
      const std::string& key, std::uint64_t fallback, std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto value = flag(key);
    if (!value) return fallback;
    std::uint64_t parsed = 0;
    const char* end = value->data() + value->size();
    const auto [stop, error] = std::from_chars(value->data(), end, parsed);
    if (error == std::errc{} && stop == end && parsed >= min && parsed <= max) return parsed;
    const auto range = max == std::numeric_limits<std::uint64_t>::max()
                           ? ">= " + std::to_string(min)
                           : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    throw std::invalid_argument("--" + key + " expects an integer " + range + ", got '" +
                                *value + "'");
  }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// The most threads a worker flag may ask for: `--workers=5000` is a typo.
constexpr std::uint64_t kMaxWorkers = 256;

const telescope::Telescope& shared_telescope() {
  static const auto telescope = telescope::Telescope::paper_default();
  return telescope;
}

/// Replay workers when `--workers` is not given: keep one core for the
/// feeder, stay within a sane span. Always >= 2 so the `parallel.*`
/// metrics namespace is populated on any multi-core host.
std::size_t default_workers() {
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw == 0 ? 2 : hw - 1, 2, 8);
}

/// The ingest switches every command shares: `--no-probe-cache` skips
/// the `.spc` cache in both directions.
core::IngestOptions ingest_options(const Args& args) {
  core::IngestOptions options;
  options.use_cache = !args.flag("no-probe-cache");
  return options;
}

/// The shared analysis entry point (core/analysis_session.h) bound to
/// the CLI's fixed telescope and registry: a one-capture `run_shards`
/// plan, the path the daemon's LOAD takes too, which is what makes
/// `QUERY analyze` responses byte-identical to the offline `--json`
/// file.
core::AnalyzedCapture analyze_capture(const std::string& path, std::size_t workers,
                                      const core::IngestOptions& options) {
  return core::analyze_capture(path, shared_telescope(),
                               enrich::InternetRegistry::synthetic_default(), workers,
                               options);
}

void warn_on_truncation(pcap::ReadStatus status) {
  if (status == pcap::ReadStatus::kTruncated) {
    std::cerr << "warning: capture ends mid-record (truncated write?); analyzed the "
                 "readable prefix\n";
  } else if (status == pcap::ReadStatus::kBadRecord) {
    std::cerr << "warning: capture framing is corrupt; analyzed the readable prefix\n";
  }
}

/// The frames of each sensor class, as `info` and `cache stat` print them.
report::Table sensor_table(const telescope::SensorCounters& counters) {
  report::Table table({"class", "frames"});
  table.add_row({"scan probes", std::to_string(counters.scan_probes)});
  table.add_row({"backscatter", std::to_string(counters.backscatter)});
  table.add_row({"xmas/null", std::to_string(counters.xmas_or_null)});
  table.add_row({"other tcp", std::to_string(counters.other_tcp)});
  table.add_row({"udp", std::to_string(counters.udp)});
  table.add_row({"icmp", std::to_string(counters.icmp)});
  table.add_row({"not monitored", std::to_string(counters.not_monitored)});
  table.add_row({"ingress blocked", std::to_string(counters.ingress_blocked)});
  table.add_row({"malformed", std::to_string(counters.malformed)});
  table.add_row({"spoofed source", std::to_string(counters.spoofed_source)});
  return table;
}

}  // namespace

int run_simulate(const std::vector<std::string>& args) {
  const Args parsed(args);
  const int year = static_cast<int>(parsed.number("year", 2022));
  const double scale = parsed.number("scale", 32.0);
  const auto out = parsed.flag("out");
  if (!out) throw std::invalid_argument("simulate requires --out=<file>");

  auto config = simgen::year_config(year, scale);
  if (const auto seed = parsed.flag("seed")) config.seed = std::stoull(*seed);
  if (const auto days = parsed.flag("days")) {
    config.window_days = std::min(config.window_days, std::stod(*days));
  }

  const auto& telescope = shared_telescope();
  auto writer = pcap::Writer::create(*out);
  simgen::TrafficGenerator generator(config, telescope,
                                     enrich::InternetRegistry::synthetic_default());
  const auto stats = generator.run([&](const net::RawFrame& f) { writer.write(f); });
  writer.flush();

  std::cout << "wrote " << stats.total_frames << " frames (" << stats.scan_frames
            << " scan, " << stats.backscatter_frames << " backscatter) to " << *out
            << "\n"
            << "window: " << year << ", " << config.window_days << " days at 1/"
            << simgen::kPacketScale * scale << " packet volume, "
            << stats.planned_campaigns << " planned campaigns\n";
  return 0;
}

int run_analyze(const std::vector<std::string>& args) {
  const Args parsed(args);
  if (parsed.positional().empty()) {
    throw std::invalid_argument("analyze requires a capture path");
  }
  const auto top_n = static_cast<std::size_t>(parsed.integer("top", 10));
  // `--metrics` prints a run report; `--metrics=<file>` writes it as
  // JSON (schema in docs/OBSERVABILITY.md). Must be enabled before the
  // pipeline is built: instrumentation resolves its cells at construction.
  const auto metrics = parsed.flag("metrics");
  if (metrics) obs::set_enabled(true);
  const auto workers =
      static_cast<std::size_t>(parsed.integer("workers", default_workers(), 0, kMaxWorkers));
  auto analysis =
      analyze_capture(parsed.positional().front(), workers, ingest_options(parsed));
  warn_on_truncation(analysis.final_status);
  const auto& campaigns = analysis.result.campaigns;

  std::cout << "frames: " << analysis.frames << ", scan probes "
            << analysis.result.sensor.scan_probes << ", campaigns " << campaigns.size()
            << ", sub-threshold sources "
            << analysis.result.tracker.subthreshold_flows << "\n\n";

  const auto shares = core::tool_shares(campaigns);
  report::Table tools({"tool", "scans", "scan share", "packet share"});
  for (const auto tool : fingerprint::kAllTools) {
    tools.add_row({std::string(fingerprint::to_string(tool)),
                   std::to_string(shares.by_scans.count(tool)),
                   report::percent(shares.by_scans.share(tool)),
                   report::percent(shares.by_packets.share(tool))});
  }
  std::cout << "-- tools --\n" << tools << "\n";

  // The three tables below read one tally, composed here once.
  const auto tally = analysis.result.port_tally();
  report::Table ports({"port", "packets", "share", "sources"});
  for (const auto& row : tally.top_ports_by_packets(top_n)) {
    ports.add_row({std::to_string(row.port), std::to_string(row.count),
                   report::percent(row.share),
                   std::to_string(tally.sources_on_port(row.port))});
  }
  std::cout << "-- top ports by packets --\n" << ports << "\n";

  const auto type_table = core::type_share_table(core::TypeView(tally, *analysis.registry),
                                                 campaigns, *analysis.registry);
  report::Table types({"scanner type", "sources", "scans", "packets"});
  for (const auto& row : type_table) {
    types.add_row({std::string(enrich::to_string(row.type)),
                   report::percent(row.source_share, 2),
                   report::percent(row.scan_share, 2),
                   report::percent(row.packet_share, 2)});
  }
  std::cout << "-- scanner types --\n" << types << "\n";

  report::Table countries({"country", "packets", "share"});
  for (const auto& row : core::GeoView(tally, *analysis.registry).top_countries(top_n)) {
    countries.add_row({row.country.to_string(), std::to_string(row.packets),
                       report::percent(row.share)});
  }
  std::cout << "-- origin countries --\n" << countries;

  if (const auto json_path = parsed.flag("json")) {
    // Serialize to a string first — the same append_* emission the
    // daemon sends over its socket — then write the bytes in one go.
    std::string payload;
    report::append_analyze_json(payload, analysis.result);
    std::ofstream json_out(*json_path, std::ios::trunc | std::ios::binary);
    if (!json_out.is_open()) {
      throw std::runtime_error("cannot write " + *json_path);
    }
    json_out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    std::cout << "\nwrote counters + " << campaigns.size() << " campaigns to "
              << *json_path << " (JSON lines)\n";
  }

  if (metrics) {
    const auto report = obs::RunReport::capture(
        "analyze " + parsed.positional().front(), &analysis.result);
    if (*metrics == "true" || metrics->empty()) {  // no file: print the table
      std::cout << "\n-- run report --\n" << report.to_table();
    } else {
      std::ofstream metrics_out(*metrics, std::ios::trunc);
      if (!metrics_out.is_open()) {
        throw std::runtime_error("cannot write " + *metrics);
      }
      report.write_json(metrics_out);
      metrics_out << '\n';
      std::cout << "\nwrote run report to " << *metrics << "\n";
    }
  }
  return 0;
}

int run_serve(const std::vector<std::string>& args) {
  const Args parsed(args);
  // `--metrics` must precede daemon construction: the server resolves
  // its metric cells once, in the constructor.
  const bool metrics = parsed.flag("metrics").has_value();
  if (metrics) obs::set_enabled(true);

  server::DaemonConfig config;
  if (const auto socket = parsed.flag("socket")) config.unix_socket = *socket;
  if (parsed.flag("port")) {
    config.tcp = true;
    config.tcp_port = static_cast<std::uint16_t>(parsed.integer("port", 0, 0, 65535));
  }
  if (config.unix_socket.empty() && !config.tcp) {
    throw std::invalid_argument("serve requires --socket=<path> and/or --port=<n>");
  }
  // `--workers` is analyze's flag and default: LOAD runs the same
  // analysis, whose bytes do not depend on the worker count.
  config.analysis_workers =
      static_cast<std::size_t>(parsed.integer("workers", default_workers(), 0, kMaxWorkers));
  config.workers = static_cast<std::size_t>(parsed.integer("io-workers", 2, 0, kMaxWorkers));
  config.idle_timeout_ms = parsed.integer("idle-timeout-ms", 0);
  config.install_signal_handlers = true;
  config.ingest = ingest_options(parsed);

  server::Daemon daemon(shared_telescope(),
                        enrich::InternetRegistry::synthetic_default(),
                        std::move(config));
  if (const auto capture = parsed.flag("capture")) {
    std::cout << "synscand: loading " << *capture << "\n" << std::flush;
    daemon.preload(*capture);
  }
  std::cout << "synscand: listening";
  if (!daemon.unix_socket_path().empty()) {
    std::cout << " on " << daemon.unix_socket_path();
  }
  if (daemon.tcp_port() != 0) std::cout << " on 127.0.0.1:" << daemon.tcp_port();
  std::cout << "\n" << std::flush;  // scripts wait for this line

  daemon.serve();
  std::cout << "synscand: drained, exiting\n";
  if (metrics) {
    std::cout << "\n-- run report --\n"
              << obs::RunReport::capture("serve").to_table();
  }
  return 0;
}

int run_query(const std::vector<std::string>& args) {
  const Args parsed(args);
  const auto socket = parsed.flag("socket");
  const bool tcp = parsed.flag("port").has_value();
  if (!socket && !tcp) {
    throw std::invalid_argument("query requires --socket=<path> or --port=<n>");
  }
  const auto port = static_cast<std::uint16_t>(parsed.integer("port", 0, 1, 65535));
  std::string command;
  for (const auto& word : parsed.positional()) {
    if (!command.empty()) command.push_back(' ');
    command.append(word);
  }
  if (command.empty()) {
    throw std::invalid_argument(
        "query requires a daemon command, e.g. STATUS or 'QUERY campaigns'");
  }
  auto client = socket ? server::Client::connect_unix(*socket)
                       : server::Client::connect_tcp(
                             parsed.flag("host").value_or("127.0.0.1"), port);
  const auto response = client.roundtrip(command);
  std::string_view body;
  std::string error;
  if (!server::parse_response(response, body, error)) {
    std::cerr << "synscand error: " << error << "\n";
    return 1;
  }
  std::cout << body;
  return 0;
}

int run_fingerprint(const std::vector<std::string>& args) {
  const Args parsed(args);
  if (parsed.positional().empty()) {
    throw std::invalid_argument("fingerprint requires a capture path");
  }
  const auto& telescope = shared_telescope();
  // Each source's evidence, judged under the default ClassifierConfig.
  using Evidence = core::FlatHashMap<std::uint32_t, fingerprint::ToolEvidence>;
  Evidence evidence;

  const auto ingested = core::ingest_capture(
      parsed.positional().front(), telescope, ingest_options(parsed),
      [&](const telescope::ProbeBatch& batch) {
        for (std::size_t row = 0; row < batch.size(); ++row) {
          evidence[batch.source[row]].observe(batch.get(row));
        }
      });
  warn_on_truncation(ingested.status);

  std::vector<const Evidence::value_type*> by_source;
  by_source.reserve(evidence.size());
  for (const auto& entry : evidence) by_source.push_back(&entry);
  std::sort(by_source.begin(), by_source.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  report::Table table({"source", "probes", "verdict", "zmap", "masscan", "mirai",
                       "nmap-pairs", "unicorn-pairs"});
  std::size_t shown = 0;
  for (const auto* entry : by_source) {
    const auto& [source, tool_evidence] = *entry;
    if (tool_evidence.probes < 3) continue;  // skip one-off chatter
    table.add_row({net::Ipv4Address(source).to_string(),
                   std::to_string(tool_evidence.probes),
                   std::string(fingerprint::to_string(tool_evidence.verdict())),
                   std::to_string(tool_evidence.matches(fingerprint::Tool::kZmap)),
                   std::to_string(tool_evidence.matches(fingerprint::Tool::kMasscan)),
                   std::to_string(tool_evidence.matches(fingerprint::Tool::kMirai)),
                   std::to_string(tool_evidence.matches(fingerprint::Tool::kNmap)),
                   std::to_string(tool_evidence.matches(fingerprint::Tool::kUnicorn))});
    if (++shown == 40) break;
  }
  std::cout << table;
  std::cout << "(" << evidence.size() << " sources total; showing up to 40 with >=3 "
            << "probes)\n";
  return 0;
}

int run_info(const std::vector<std::string>& args) {
  const Args parsed(args);
  if (parsed.positional().empty()) {
    throw std::invalid_argument("info requires a capture path");
  }
  const auto& path = parsed.positional().front();
  // Read once and sniff the bytes in hand: a pipe hands its bytes to one
  // reader only.
  const auto file = pcap::MappedFile::open(path);

  // The analysis's own classifier; its probe batches are not needed.
  core::FrameBatcher batcher(shared_telescope(), [](const telescope::ProbeBatch&) {});
  net::RawFrame frame;
  net::TimeUs first = 0;
  net::TimeUs last = 0;
  pcap::ReadStatus status;
  const auto walk = [&](auto& reader) {
    while ((status = reader.next(frame)) == pcap::ReadStatus::kOk) {
      if (batcher.frames() == 0) first = frame.timestamp_us;
      last = frame.timestamp_us;
      batcher.push(frame);
    }
  };
  if (pcap::looks_like_pcapng(file.bytes())) {
    auto reader = pcap::NgReader::over(file.bytes());
    std::cout << "capture:      " << path << "\n"
              << "format:       pcapng\n";
    walk(reader);
  } else {
    auto reader = pcap::Reader::over(file.bytes());
    const auto& info = reader.info();
    std::cout << "capture:      " << path << "\n"
              << "byte order:   " << (info.big_endian ? "big" : "little") << "-endian\n"
              << "timestamps:   " << (info.nanosecond ? "nanosecond" : "microsecond")
              << "\n"
              << "version:      " << info.version_major << "." << info.version_minor
              << "\n"
              << "snap length:  " << info.snap_length << "\n"
              << "link type:    ethernet\n";  // the reader refuses any other
    walk(reader);
  }

  const auto frames = batcher.frames();
  std::cout << "frames:       " << frames << " ("
            << (status == pcap::ReadStatus::kEndOfFile ? "clean end" : "truncated/corrupt")
            << ")\n";
  if (frames > 0) {
    std::cout << "time span:    "
              << report::fixed(static_cast<double>(last - first) /
                                   static_cast<double>(net::kMicrosPerDay),
                               3)
              << " days\n";
  }
  std::cout << sensor_table(batcher.finish());
  return 0;
}

namespace {

const char* status_name(pcap::ReadStatus status) {
  switch (status) {
    case pcap::ReadStatus::kOk: return "ok";
    case pcap::ReadStatus::kEndOfFile: return "end-of-file";
    case pcap::ReadStatus::kTruncated: return "truncated";
    case pcap::ReadStatus::kBadRecord: return "bad-record";
  }
  return "unknown";
}

const char* codec_name(std::uint32_t codec) {
  return codec == core::kCacheCodecDeltaVarint ? "delta-varint" : "unknown";
}

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// The capture a `.spc` path belongs to, when derivable: caches are
/// named `<capture>.spc`, so stripping the suffix finds the sibling.
std::optional<std::filesystem::path> sibling_capture(const std::string& cache_path) {
  const std::string_view suffix = ".spc";
  if (cache_path.size() <= suffix.size() ||
      cache_path.compare(cache_path.size() - suffix.size(), suffix.size(), suffix) !=
          0) {
    return std::nullopt;
  }
  std::filesystem::path capture(
      cache_path.substr(0, cache_path.size() - suffix.size()));
  std::error_code ec;
  if (!std::filesystem::is_regular_file(capture, ec) || ec) return std::nullopt;
  return capture;
}

int run_cache_stat(const std::string& path) {
  const auto info = core::cache_stat(path);
  if (!info) {
    std::cerr << "synscan cache: not a probe cache: " << path << "\n";
    return 1;
  }
  std::cout << "cache:          " << path << "\n"
            << "version:        " << info->version << "\n"
            << "codec:          " << codec_name(info->codec) << "\n"
            << "file size:      " << info->file_size << " bytes\n"
            << "source size:    " << info->source_size << " bytes\n"
            << "source mtime:   " << hex64(info->source_mtime_ns) << "\n"
            << "frames:         " << info->frame_count << "\n"
            << "probes:         " << info->probe_count << "\n"
            << "terminal:       " << status_name(info->terminal_status) << "\n"
            << "checksum:       " << hex64(info->checksum) << "\n"
            << sensor_table(info->sensor);
  return 0;
}

int run_cache_verify(const Args& parsed, const std::string& path) {
  std::optional<core::CacheIdentity> expected;
  if (const auto capture = parsed.flag("capture")) {
    expected = core::cache_identity(*capture);
    if (!expected) {
      throw std::invalid_argument("cache verify: cannot stat capture " + *capture);
    }
  } else if (const auto sibling = sibling_capture(path)) {
    expected = core::cache_identity(*sibling);
  }
  const auto report = core::cache_verify(path, expected);
  if (!report.ok) {
    std::cout << "invalid: " << report.error << "\n";
    return 1;
  }
  std::cout << "valid: " << report.rows << " probes in " << report.chunks
            << " chunk(s)"
            << (expected ? ", matches source capture" : ", source identity unchecked")
            << "\n";
  return 0;
}

int run_cache_build(const Args& parsed, const std::string& capture) {
  auto options = ingest_options(parsed);
  options.use_cache = true;
  if (const auto out = parsed.flag("out")) options.cache_path = *out;
  const auto cache_path = options.cache_path.empty()
                              ? std::filesystem::path(capture + ".spc")
                              : options.cache_path;
  if (parsed.flag("force")) {
    std::error_code ec;
    std::filesystem::remove(cache_path, ec);
  }
  const auto result = core::ingest_capture(capture, shared_telescope(), options,
                                           [](const telescope::ProbeBatch&) {});
  std::cout << (result.from_cache ? "already valid: " : "built: ")
            << cache_path.string() << " (" << result.sensor.scan_probes
            << " probes from " << result.frames << " frames, "
            << status_name(result.status) << ")\n";
  return 0;
}

/// Shared by `rollup build|query` and the daemon's ROLLUP verb: plan the
/// capture set in capture-time order and execute it over the `.spr`
/// store.
core::ShardRunResult run_rollup_shards(const Args& parsed,
                                       std::span<const std::string> captures) {
  core::ShardRunOptions options;
  options.workers = static_cast<std::size_t>(parsed.integer("workers", 0, 0, kMaxWorkers));
  std::vector<std::filesystem::path> paths(captures.begin(), captures.end());
  const auto plan = core::plan_shards(paths);
  options.use_rollup_store = !parsed.flag("no-rollup-store");
  options.ingest = ingest_options(parsed);
  return core::run_shards(plan, shared_telescope(),
                          enrich::InternetRegistry::synthetic_default(),
                          core::TrackerConfig{}, options);
}

int run_rollup_stat(const std::string& path) {
  const auto info = core::rollup_stat(path);
  if (!info) {
    std::cerr << "synscan rollup: not a rollup file: " << path << "\n";
    return 1;
  }
  std::cout << "rollup:         " << path << "\n"
            << "version:        " << info->version << "\n"
            << "file size:      " << info->file_size << " bytes\n"
            << "payload size:   " << info->payload_size << " bytes\n"
            << "source size:    " << info->source_size << " bytes\n"
            << "source mtime:   " << hex64(info->source_mtime_ns) << "\n"
            << "fingerprint:    " << hex64(info->analysis_fingerprint) << "\n"
            << "campaigns:      " << info->campaigns << "\n"
            << "segments:       " << info->segments << "\n"
            << "checksum:       " << hex64(info->checksum) << "\n";
  return 0;
}

/// What a rollup run did with the store, as `rollup build` prints it
/// on stdout and `rollup query` on stderr.
void print_store_stats(std::ostream& out, const core::ShardRunStats& stats) {
  out << "shards:         " << stats.shards << "\n"
      << "store hits:     " << stats.store_hits << "\n"
      << "re-analyzed:    " << stats.store_misses << "\n"
      << "rollups saved:  " << stats.store_writes << "\n";
}

int run_rollup_build(const Args& parsed, std::span<const std::string> captures) {
  const auto result = run_rollup_shards(parsed, captures);
  print_store_stats(std::cout, result.stats);
  std::cout << "campaigns:      " << result.analysis.result.campaigns.size() << "\n"
            << "scan probes:    " << result.analysis.result.sensor.scan_probes << "\n";
  warn_on_truncation(result.analysis.final_status);
  return 0;
}

int run_rollup_query(const Args& parsed, std::span<const std::string> captures) {
  const auto result = run_rollup_shards(parsed, captures);
  // Stdout carries the report bytes alone.
  print_store_stats(std::cerr, result.stats);
  warn_on_truncation(result.analysis.final_status);
  // The exact byte stream `analyze --json` writes for the concatenated
  // captures: counters line, then one campaign per line.
  std::string payload;
  report::append_analyze_json(payload, result.analysis.result);
  if (const auto json_path = parsed.flag("json")) {
    std::ofstream json_out(*json_path, std::ios::trunc | std::ios::binary);
    if (!json_out.is_open()) {
      throw std::runtime_error("cannot write " + *json_path);
    }
    json_out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    std::cout << "wrote counters + " << result.analysis.result.campaigns.size()
              << " campaigns to " << *json_path << " (JSON lines)\n";
  } else {
    std::cout << payload;
  }
  return 0;
}

}  // namespace

int run_rollup(const std::vector<std::string>& args) {
  const Args parsed(args);
  const auto& positional = parsed.positional();
  if (positional.empty()) {
    throw std::invalid_argument("rollup requires a subcommand: build | stat | query");
  }
  const auto& action = positional.front();
  if (positional.size() < 2) {
    throw std::invalid_argument("rollup " + action + " requires a path argument");
  }
  const std::span<const std::string> rest(positional.data() + 1,
                                          positional.size() - 1);
  if (action == "stat") return run_rollup_stat(positional[1]);
  if (action == "build") return run_rollup_build(parsed, rest);
  if (action == "query") return run_rollup_query(parsed, rest);
  throw std::invalid_argument("unknown rollup subcommand '" + action +
                              "' (build | stat | query)");
}

int run_cache(const std::vector<std::string>& args) {
  const Args parsed(args);
  const auto& positional = parsed.positional();
  if (positional.empty()) {
    throw std::invalid_argument("cache requires a subcommand: stat | verify | build");
  }
  const auto& action = positional.front();
  if (positional.size() < 2) {
    throw std::invalid_argument("cache " + action + " requires a path argument");
  }
  const auto& path = positional[1];
  if (action == "stat") return run_cache_stat(path);
  if (action == "verify") return run_cache_verify(parsed, path);
  if (action == "build") return run_cache_build(parsed, path);
  throw std::invalid_argument("unknown cache subcommand '" + action +
                              "' (stat | verify | build)");
}

}  // namespace synscan::cli
