// Shared helpers for the test suites.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/analysis_session.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/tracker.h"
#include "enrich/registry.h"
#include "net/endian.h"
#include "net/packet.h"
#include "reference_decode.h"
#include "simgen/generator.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"

namespace synscan::testing {

/// Builds a ScanProbe with sensible defaults, overridable per field.
struct ProbeBuilder {
  telescope::ScanProbe probe;

  ProbeBuilder() {
    probe.timestamp_us = 1'000'000;
    probe.source = net::Ipv4Address::from_octets(5, 6, 7, 8);
    probe.destination = net::Ipv4Address::from_octets(198, 51, 3, 4);
    probe.source_port = 40000;
    probe.destination_port = 80;
    probe.sequence = 0x12345678;
    probe.ip_id = 7;
    probe.window = 1024;
    probe.ttl = 64;
  }

  ProbeBuilder& at(net::TimeUs t) {
    probe.timestamp_us = t;
    return *this;
  }
  ProbeBuilder& from(net::Ipv4Address src) {
    probe.source = src;
    return *this;
  }
  ProbeBuilder& to(net::Ipv4Address dst) {
    probe.destination = dst;
    return *this;
  }
  ProbeBuilder& port(std::uint16_t p) {
    probe.destination_port = p;
    return *this;
  }
  ProbeBuilder& sport(std::uint16_t p) {
    probe.source_port = p;
    return *this;
  }
  ProbeBuilder& seq(std::uint32_t s) {
    probe.sequence = s;
    return *this;
  }
  ProbeBuilder& ipid(std::uint16_t id) {
    probe.ip_id = id;
    return *this;
  }
  operator telescope::ScanProbe() const { return probe; }  // NOLINT(google-explicit-constructor)
};

/// A minimal valid SYN frame for sensor-level tests.
inline std::vector<std::uint8_t> syn_frame(net::Ipv4Address src, net::Ipv4Address dst,
                                           std::uint16_t dst_port,
                                           std::uint8_t flags = net::flag_bit(net::TcpFlag::kSyn)) {
  net::TcpFrameSpec spec;
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.src_port = 12345;
  spec.dst_port = dst_port;
  spec.sequence = 42;
  spec.flags = flags;
  return net::build_tcp_frame(spec);
}

/// The production front door over in-memory frames: `core::FrameBatcher`
/// classifies them in batches into `pipeline.feed_probes` (any worker
/// count), then the sensor counters are absorbed.
inline void feed_batched(core::Pipeline& pipeline, const telescope::Telescope& telescope,
                         std::span<const net::RawFrame> frames) {
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    pipeline.feed_probes(batch);
  });
  for (const auto& frame : frames) batcher.push(frame);
  pipeline.absorb_sensor_counters(batcher.finish());
}

/// Simulates `config` straight into `pipeline` through the same front
/// door as `feed_batched`.
inline simgen::GeneratorStats generate_into(core::Pipeline& pipeline,
                                            const telescope::Telescope& telescope,
                                            simgen::YearConfig config) {
  simgen::TrafficGenerator generator(std::move(config), telescope,
                                     enrich::InternetRegistry::synthetic_default());
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    pipeline.feed_probes(batch);
  });
  const auto stats = generator.run([&](const net::RawFrame& frame) { batcher.push(frame); });
  pipeline.absorb_sensor_counters(batcher.finish());
  return stats;
}

/// Feeds one probe as a one-row batch: the pipeline's only entry,
/// `feed_probes`, a probe at a time.
inline void feed_one(core::Pipeline& pipeline, const telescope::ScanProbe& probe) {
  telescope::ProbeBatch batch;
  batch.push_back(probe);
  pipeline.feed_probes(batch);
}

/// The per-frame reference the batched front door is tested against:
/// each frame through the reference `Sensor::classify`
/// (reference_decode.h), each probe through `feed_one`, then the sensor
/// counters are absorbed.
inline void feed_per_frame(core::Pipeline& pipeline, const telescope::Telescope& telescope,
                           std::span<const net::RawFrame> frames) {
  telescope::Sensor sensor(telescope);
  for (const auto& frame : frames) {
    telescope::ScanProbe probe;
    if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
      feed_one(pipeline, probe);
    }
  }
  pipeline.absorb_sensor_counters(sensor.counters());
}

/// Runs `probes` through a fresh tracker, probe by probe, and returns
/// the campaigns it closed.
[[nodiscard]] inline std::vector<core::Campaign> collect_campaigns(
    const core::TrackerConfig& config, std::uint64_t monitored_addresses,
    std::span<const telescope::ScanProbe> probes) {
  std::vector<core::Campaign> campaigns;
  core::CampaignTracker tracker(config, monitored_addresses,
                                [&](core::Campaign&& c) { campaigns.push_back(std::move(c)); });
  for (const auto& probe : probes) tracker.feed(probe);
  tracker.finish();
  return campaigns;
}

/// The single-pass reference the shard plans are tested against: one
/// tracker, carry mode off, fed by the batched front door straight from
/// `ingest_capture` — the paper's analysis of a whole capture with no
/// `run_shards`, `analyze_shard` or `RollupMerger` in the way.
inline core::AnalyzedCapture single_pass_analysis(const std::filesystem::path& path,
                                                  const telescope::Telescope& telescope,
                                                  const enrich::InternetRegistry& registry,
                                                  const core::IngestOptions& ingest) {
  core::AnalyzedCapture analysis(registry);
  core::Pipeline pipeline(telescope);
  const auto ingested =
      core::ingest_capture(path, telescope, ingest, [&](const telescope::ProbeBatch& batch) {
        pipeline.feed_probes(batch);
      });
  pipeline.absorb_sensor_counters(ingested.sensor);
  analysis.frames = ingested.frames;
  analysis.final_status = ingested.status;
  analysis.from_cache = ingested.from_cache;
  analysis.result = pipeline.finish();
  return analysis;
}

/// Byte-level pcapng builder for tests.
class NgBuilder {
 public:
  explicit NgBuilder(bool big_endian = false) : big_endian_(big_endian) {}

  NgBuilder& section_header() {
    std::vector<std::uint8_t> body;
    u32(body, 0x1A2B3C4D);  // byte-order magic
    u16(body, 1);           // major
    u16(body, 0);           // minor
    u64(body, 0xffffffffffffffffull);  // section length: unknown
    block(0x0A0D0D0A, body);
    return *this;
  }

  /// Adds an IDB; tsresol 6 = microseconds, 9 = nanoseconds, 0x80|n = 2^-n.
  NgBuilder& interface_block(std::uint8_t tsresol = 6, std::uint16_t link_type = 1) {
    std::vector<std::uint8_t> body;
    u16(body, link_type);  // 1: LINKTYPE_ETHERNET
    u16(body, 0);  // reserved
    u32(body, 65535);  // snaplen
    // if_tsresol option.
    u16(body, 9);
    u16(body, 1);
    body.push_back(tsresol);
    body.insert(body.end(), 3, 0);  // pad to 32 bits
    // opt_endofopt.
    u16(body, 0);
    u16(body, 0);
    block(1, body);
    return *this;
  }

  NgBuilder& enhanced_packet(std::uint32_t interface_id, std::uint64_t ticks,
                             std::vector<std::uint8_t> data) {
    std::vector<std::uint8_t> body;
    u32(body, interface_id);
    u32(body, static_cast<std::uint32_t>(ticks >> 32));
    u32(body, static_cast<std::uint32_t>(ticks & 0xffffffff));
    u32(body, static_cast<std::uint32_t>(data.size()));  // captured
    u32(body, static_cast<std::uint32_t>(data.size()));  // original
    body.insert(body.end(), data.begin(), data.end());
    while (body.size() % 4 != 0) body.push_back(0);
    block(6, body);
    return *this;
  }

  NgBuilder& simple_packet(std::vector<std::uint8_t> data) {
    std::vector<std::uint8_t> body;
    u32(body, static_cast<std::uint32_t>(data.size()));
    body.insert(body.end(), data.begin(), data.end());
    while (body.size() % 4 != 0) body.push_back(0);
    block(3, body);
    return *this;
  }

  NgBuilder& unknown_block() {
    std::vector<std::uint8_t> body = {1, 2, 3, 4, 5, 6, 7, 8};
    block(0x0BAD0000, body);
    return *this;
  }

  void write(const std::filesystem::path& path) const {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

 private:
  void u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    std::uint8_t b[2];
    big_endian_ ? net::store_be16(b, v) : net::store_le16(b, v);
    out.insert(out.end(), b, b + 2);
  }
  void u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    std::uint8_t b[4];
    big_endian_ ? net::store_be32(b, v) : net::store_le32(b, v);
    out.insert(out.end(), b, b + 4);
  }
  void u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    u32(out, static_cast<std::uint32_t>(big_endian_ ? v >> 32 : v & 0xffffffff));
    u32(out, static_cast<std::uint32_t>(big_endian_ ? v & 0xffffffff : v >> 32));
  }
  void block(std::uint32_t type, const std::vector<std::uint8_t>& body) {
    const auto total = static_cast<std::uint32_t>(12 + body.size());
    u32(bytes_, type);
    u32(bytes_, total);
    bytes_.insert(bytes_.end(), body.begin(), body.end());
    u32(bytes_, total);
  }

  bool big_endian_;
  std::vector<std::uint8_t> bytes_;
};

/// A fresh directory for a test's files under the system temp
/// directory, removed on scope exit. Its name carries the running
/// test's name, an optional `tag`, the process id and a per-process
/// sequence number, so no two directories of concurrent suite runs
/// (ctest -j, two build trees of one checkout) or of one test ever
/// coincide.
class ScratchDir {
 public:
  explicit ScratchDir(std::string_view tag = {})
      : path_(std::filesystem::temp_directory_path() / unique_name(tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ScratchDir(ScratchDir&&) = delete;
  ScratchDir& operator=(ScratchDir&&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }
  [[nodiscard]] std::filesystem::path operator/(std::string_view name) const {
    return path_ / name;
  }

 private:
  /// "synscan_<suite.test>[_<tag>]_<pid>_<n>": the test (its suite alone
  /// during suite setup) and tag cut to 48 characters of [A-Za-z0-9._-],
  /// which keeps a socket path inside it under the 108-byte `sun_path`
  /// limit.
  static std::string unique_name(std::string_view tag) {
    static std::atomic<unsigned> sequence{0};
    const auto* unit = ::testing::UnitTest::GetInstance();
    std::string test = "global";
    if (const auto* info = unit->current_test_info()) {
      test = std::string(info->test_suite_name()) + "." + info->name();
    } else if (const auto* suite = unit->current_test_suite()) {
      test = suite->name();
    }
    if (!tag.empty()) test.append("_").append(tag);
    test.resize(std::min<std::size_t>(test.size(), 48));
    for (auto& c : test) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '-') c = '_';
    }
    return "synscan_" + test + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(sequence.fetch_add(1));
  }

  std::filesystem::path path_;
};

/// The names in `dir`, sorted: a temp file of any name shows up here.
[[nodiscard]] inline std::vector<std::string> dir_entries(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// A file's bytes.
[[nodiscard]] inline std::vector<char> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A named pipe carrying a file's bytes, fed by one writer thread — the
/// input a capture tool piping into `synscan analyze` produces. Each
/// reader that opens the pipe receives the bytes not yet delivered, and
/// once all are delivered every later reader gets end of input, so a
/// reader that opens the path twice fails on the data instead of
/// blocking. The writer gives up once no reader has come for
/// `kPatience`, so a failing ingest cannot hang the test either.
class FifoFeed {
 public:
  FifoFeed(std::filesystem::path fifo, const std::filesystem::path& source)
      : path_(std::move(fifo)), bytes_(slurp(source)) {
    if (::mkfifo(path_.c_str(), 0600) != 0) {
      throw std::runtime_error("mkfifo failed: " + path_.string());
    }
    writer_ = std::thread([this] { feed(); });
  }
  ~FifoFeed() {
    stop_ = true;
    writer_.join();
    std::filesystem::remove(path_);
  }
  FifoFeed(const FifoFeed&) = delete;
  FifoFeed& operator=(const FifoFeed&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  static constexpr auto kPatience = std::chrono::seconds(10);

  void feed() {
    // A reader that leaves early turns the next write into SIGPIPE for
    // this thread; blocked, it arrives as an EPIPE error instead.
    sigset_t pipe_signal;
    sigemptyset(&pipe_signal);
    sigaddset(&pipe_signal, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
    std::size_t offset = 0;
    while (offset < bytes_.size()) {
      const int fd = open_writer();
      if (fd < 0) return;
      while (offset < bytes_.size()) {
        const auto wrote = ::write(fd, bytes_.data() + offset, bytes_.size() - offset);
        if (wrote < 0) {
          if (errno == EINTR) continue;
          break;  // the reader left; wait for the next one
        }
        offset += static_cast<std::size_t>(wrote);
      }
      ::close(fd);
    }
    // A reader opening the pipe now would wait for a writer forever;
    // hand it end of input instead.
    while (!stop_) {
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// The write end once a reader has the pipe open; -1 after kPatience.
  [[nodiscard]] int open_writer() const {
    const auto deadline = std::chrono::steady_clock::now() + kPatience;
    for (;;) {
      // Non-blocking, the open fails with ENXIO until a reader arrives.
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) {
        (void)::fcntl(fd, F_SETFL, 0);  // blocking writes from here on
        return fd;
      }
      if (errno != ENXIO || std::chrono::steady_clock::now() > deadline) return -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::filesystem::path path_;
  std::vector<char> bytes_;
  std::atomic<bool> stop_{false};  ///< set once the test has no more readers to send
  std::thread writer_;
};

}  // namespace synscan::testing
