#include "inputs.h"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "common.h"
#include "core/ingest.h"
#include "pcap/pcap.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"

namespace perfbench {
namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

synscan::simgen::YearConfig seeded_year(int year, double scale, std::uint64_t seed) {
  auto config = synscan::simgen::year_config(year, scale);
  config.seed = splitmix(seed * 1000003ull + static_cast<std::uint64_t>(year));
  return config;
}

void write_window(const fs::path& capture, std::uint64_t seed, double shrink) {
  const auto cap = static_cast<std::uint64_t>(static_cast<double>(kWindowFrames) / shrink);
  auto writer = synscan::pcap::Writer::create(capture);
  synscan::simgen::TrafficGenerator generator(seeded_year(2024, shrink, seed),
                                              bench_telescope(), bench_registry());
  generator.run([&](const synscan::net::RawFrame& frame) {
    if (writer.frames_written() < cap) writer.write(frame);
  });
  writer.flush();
}

/// The ten calibrated windows, each cut into one capture file per week
/// of its window. Flows cross the cuts, as in continuous telescope data.
/// Campaigns the generator lets run past a window's end are dropped, so
/// every seed gives the same 71 shards.
void write_decade(const fs::path& dir, std::uint64_t seed, double shrink) {
  constexpr std::int64_t kWeekUs = 7LL * 24 * 3600 * 1'000'000;
  const auto shard_dir = dir / "decade";
  fs::create_directories(shard_dir);
  for (int year = 2015; year <= 2024; ++year) {
    const auto config = seeded_year(year, kDecadeScale * shrink, seed);
    const auto start = static_cast<std::int64_t>(config.start_time);
    const auto end = start + static_cast<std::int64_t>(config.window_length_us());
    std::optional<synscan::pcap::Writer> writer;
    std::int64_t open_week = -1;
    synscan::simgen::TrafficGenerator generator(config, bench_telescope(),
                                                bench_registry());
    generator.run([&](const synscan::net::RawFrame& frame) {
      const auto at = static_cast<std::int64_t>(frame.timestamp_us);
      if (at >= end) return;
      const auto week = std::max<std::int64_t>(0, at - start) / kWeekUs;
      if (week != open_week) {
        if (writer) writer->flush();
        char name[32];
        std::snprintf(name, sizeof name, "%d-w%02lld.pcap", year,
                      static_cast<long long>(week));
        writer.emplace(synscan::pcap::Writer::create(shard_dir / name));
        open_week = week;
      }
      writer->write(frame);
    });
    if (writer) writer->flush();
  }
}

}  // namespace

fs::path window_capture(const fs::path& dir) { return dir / "window2024.pcap"; }

std::vector<fs::path> decade_shards(const fs::path& dir) {
  std::vector<fs::path> shards;
  for (const auto& entry : fs::directory_iterator(dir / "decade")) {
    if (entry.path().extension() == ".pcap") shards.push_back(entry.path());
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

synscan::core::ShardPlan workload_plan(const RunOptions& options) {
  const auto captures = options.workload == "decade-rollup"
                            ? decade_shards(options.dir)
                            : std::vector<fs::path>{window_capture(options.dir)};
  return synscan::core::plan_shards(captures);
}

fs::path spc_path(const fs::path& capture) {
  auto path = capture;
  path += ".spc";
  return path;
}

void generate_inputs(std::string_view workload, std::uint64_t seed, double shrink,
                     const fs::path& dir) {
  fs::create_directories(dir);
  if (workload == "window2024") {
    write_window(window_capture(dir), seed, shrink);
  } else if (workload == "decade-rollup") {
    write_decade(dir, seed, shrink);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(workload) + "'");
  }
  // Flush the inputs to disk now, so the kernel's writeback of them
  // does not run during the measurement.
  ::sync();
}

}  // namespace perfbench
