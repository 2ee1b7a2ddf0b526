// Ingest perf workload: pcap records -> classified ScanProbes, reported
// as JSON. CI's perf-smoke job runs it as a gross-regression gate;
// speed claims come from perfbench/ (docs/PERFORMANCE.md "Measuring").
//
// One run measures all three ingest paths over the same generated
// capture, so a single run carries its own baseline:
//   pre        — record at a time: pcap::Reader::next, the mapped pull
//                reader (one byte-vector copy per record), each frame
//                pushed into core::FrameBatcher;
//   mmap_batch — core::ingest_capture with the cache off: one mapped
//                walk + batch classify, SoA ProbeBatch;
//   cache_warm — core::ingest_capture over the .spc probe cache the
//                cold pass just wrote (decode and classify skipped).
// The probe counts of all paths must agree; the binary exits non-zero
// if they diverge, so the run doubles as a correctness smoke.
//
// Every measured path is reported as a warmed median-of-N
// (bench::median_result) next to a memcpy GB/s baseline measured on the
// same buffer size, so each run carries the machine's effective
// memory bandwidth: frames/s numbers from different hosts (or a noisy
// VM) become comparable as a fraction of memcpy. `--check-ratio=<min>`
// turns that fraction into a CI gate — mmap_batch GB/s must clear
// `min × memcpy GB/s` — which catches a gross ingest regression (e.g.
// silently falling back to the per-record path) without the flakiness
// of absolute-time assertions on shared runners.
//
// Usage: bench_ingest [--frames=N] [--label=STR] [--seed=N]
//                     [--iters=N] [--warmup=N] [--check-ratio=MIN]
// Output: one JSON object on stdout.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/ingest.h"
#include "pcap/pcap.h"
#include "simgen/rng.h"
#include "telescope/telescope.h"

namespace {

using namespace synscan;
using bench::bench_telescope;

namespace fs = std::filesystem;

struct Options {
  std::uint64_t frames = 2'000'000;
  std::uint64_t seed = 20240806;
  std::string label = "ingest";
  int iterations = 5;
  int warmup = 1;
  /// Minimum mmap_batch GB/s as a fraction of the measured memcpy GB/s
  /// baseline; < 0 disables the gate.
  double check_ratio = -1.0;
};

Options parse(int argc, char** argv) {
  Options options;
  bench::parse_flags(argc, argv,
                     {{"frames", &options.frames},
                      {"seed", &options.seed},
                      {"label", &options.label},
                      {"iters", &options.iterations},
                      {"warmup", &options.warmup},
                      {"check-ratio", &options.check_ratio}});
  return options;
}

/// Writes a telescope-shaped capture: mostly SYN probes, with enough
/// backscatter, off-telescope traffic and UDP that every sensor branch
/// is on the measured path.
void write_capture(const fs::path& path, const Options& options) {
  simgen::Rng rng(options.seed);
  auto writer = pcap::Writer::create(path);
  net::RawFrame frame;
  net::TimeUs now = 0;
  for (std::uint64_t i = 0; i < options.frames; ++i) {
    now += 40;
    const std::uint64_t draw = rng.next_u64() % 100;
    net::TcpFrameSpec tcp;
    tcp.src_ip = net::Ipv4Address(0x05000000u + rng.next_u32() % (1u << 22));
    tcp.dst_ip = net::Ipv4Address(0xc6330000u + rng.next_u32() % 65536);
    tcp.src_port = static_cast<std::uint16_t>(40000 + rng.next_u32() % 20000);
    tcp.dst_port = (draw % 3 == 0) ? 443 : 80;
    tcp.sequence = rng.next_u32();
    tcp.ip_id = static_cast<std::uint16_t>(rng.next_u32());
    if (draw < 75) {
      // scan probe (defaults: SYN)
    } else if (draw < 85) {
      tcp.flags = net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck);
    } else if (draw < 92) {
      tcp.dst_ip = net::Ipv4Address(0x08080000u + rng.next_u32() % 65536);  // off-net
    } else if (draw < 97) {
      frame.timestamp_us = now;
      net::UdpFrameSpec udp;
      udp.src_ip = tcp.src_ip;
      udp.dst_ip = tcp.dst_ip;
      udp.src_port = tcp.src_port;
      udp.dst_port = 53;
      frame.bytes = net::build_udp_frame(udp);
      writer.write(frame);
      continue;
    } else {
      tcp.dst_port = 23;  // ingress blocked
    }
    frame.timestamp_us = now;
    frame.bytes = net::build_tcp_frame(tcp);
    writer.write(frame);
  }
  writer.flush();
}

struct PathResult {
  double seconds = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t probes = 0;
};

/// Measured memcpy bandwidth over a buffer the size of the capture —
/// the hardware ceiling every ingest GB/s column is judged against.
double measure_memcpy_gbps(const fs::path& capture, const Options& options) {
  std::ifstream in(capture, std::ios::binary);
  std::vector<char> src((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<char> dst(src.size());
  const double seconds = synscan::bench::median_seconds(
      [&] {
        std::memcpy(dst.data(), src.data(), src.size());
        // Keep the copy observable so the optimizer cannot drop it.
        asm volatile("" : : "r"(dst.data()) : "memory");
      },
      options.iterations, options.warmup);
  return static_cast<double>(src.size()) / seconds / 1e9;
}

/// The record-at-a-time path: `pcap::Reader::next` over the mapped
/// capture, copying each record into a frame for `FrameBatcher::push`.
/// The row once read through a buffered istream; it now reads through
/// the mapped pull reader, and stays measurable on every commit.
PathResult run_reader_per_frame(const fs::path& path) {
  PathResult result;
  const auto start = std::chrono::steady_clock::now();
  core::FrameBatcher batcher(bench_telescope(), [&](const telescope::ProbeBatch& batch) {
    result.probes += batch.size();
  });
  auto reader = pcap::Reader::open(path);
  net::RawFrame frame;
  while (reader.next(frame) == pcap::ReadStatus::kOk) {
    ++result.frames;
    batcher.push(frame);
  }
  (void)batcher.finish();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

PathResult run_ingest(const fs::path& path, bool use_cache, bool expect_hit) {
  PathResult result;
  core::IngestOptions options;
  options.use_cache = use_cache;
  const auto start = std::chrono::steady_clock::now();
  const auto ingest =
      core::ingest_capture(path, bench_telescope(), options,
                           [&](const telescope::ProbeBatch& batch) {
                             result.probes += batch.size();
                           });
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.frames = ingest.frames;
  if (ingest.from_cache != expect_hit) {
    std::fprintf(stderr, "bench_ingest: expected from_cache=%d\n", expect_hit ? 1 : 0);
    std::exit(1);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);

  const bench::ScratchDir dir("bench_ingest");
  const auto capture = dir.path() / "workload.pcap";
  write_capture(capture, options);
  const auto capture_bytes = fs::file_size(capture);

  const auto seconds_of = [](const PathResult& r) { return r.seconds; };
  const auto median = [&](auto&& run) {
    return synscan::bench::median_result(run, seconds_of, options.iterations,
                                         options.warmup);
  };

  const double memcpy_gbps = measure_memcpy_gbps(capture, options);
  const auto pre = median([&] { return run_reader_per_frame(capture); });
  const auto post = median([&] { return run_ingest(capture, false, false); });
  (void)run_ingest(capture, true, false);  // cold pass writes the .spc
  const auto warm = median([&] { return run_ingest(capture, true, true); });

  if (pre.probes != post.probes || pre.probes != warm.probes ||
      pre.frames != post.frames || pre.frames != warm.frames) {
    std::fprintf(stderr,
                 "bench_ingest: path divergence (frames %" PRIu64 "/%" PRIu64
                 "/%" PRIu64 ", probes %" PRIu64 "/%" PRIu64 "/%" PRIu64 ")\n",
                 pre.frames, post.frames, warm.frames, pre.probes, post.probes,
                 warm.probes);
    return 1;
  }

  const auto fps = [](const PathResult& r) {
    return static_cast<double>(r.frames) / r.seconds;
  };
  // Effective capture bandwidth: original capture bytes retired per
  // second, regardless of which representation the path actually read —
  // the one unit in which all three paths and memcpy are comparable.
  const auto gbps = [&](const PathResult& r) {
    return static_cast<double>(capture_bytes) / r.seconds / 1e9;
  };
  const double ratio = gbps(post) / memcpy_gbps;
  std::printf(
      "{\"label\":\"%s\",\"frames\":%" PRIu64 ",\"probes\":%" PRIu64 ","
      "\"capture_bytes\":%" PRIu64 ",\"peak_rss_kb\":%ld,"
      "\"iterations\":%d,\"warmup\":%d,\"memcpy_gbps\":%.2f,"
      "\"pre_seconds\":%.4f,\"pre_frames_per_sec\":%.0f,\"pre_gbps\":%.2f,"
      "\"mmap_batch_seconds\":%.4f,\"mmap_batch_frames_per_sec\":%.0f,"
      "\"mmap_batch_gbps\":%.2f,"
      "\"cache_warm_seconds\":%.4f,\"cache_warm_frames_per_sec\":%.0f,"
      "\"cache_warm_gbps\":%.2f,"
      "\"mmap_speedup\":%.2f,\"cache_speedup\":%.2f,"
      "\"mmap_vs_memcpy\":%.3f}\n",
      options.label.c_str(), pre.frames, pre.probes,
      static_cast<std::uint64_t>(capture_bytes), bench::peak_rss_kb(), options.iterations,
      options.warmup, memcpy_gbps, pre.seconds, fps(pre), gbps(pre), post.seconds,
      fps(post), gbps(post), warm.seconds, fps(warm), gbps(warm),
      fps(post) / fps(pre), fps(warm) / fps(pre), ratio);
  if (options.check_ratio >= 0.0 && ratio < options.check_ratio) {
    std::fprintf(stderr,
                 "bench_ingest: mmap_batch %.2f GB/s is %.3fx memcpy "
                 "(%.2f GB/s), below the --check-ratio=%.3f floor\n",
                 gbps(post), ratio, memcpy_gbps, options.check_ratio);
    return 1;
  }
  return 0;
}
