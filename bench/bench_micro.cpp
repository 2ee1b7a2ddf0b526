// Engineering microbenchmarks (google-benchmark): throughput of the hot
// pipeline stages. Not a paper experiment — these quantify that the
// toolkit sustains telescope-scale packet rates.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/ingest.h"
#include "core/pipeline.h"
#include "core/tracker.h"
#include "fingerprint/classifier.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "pcap/pcap.h"
#include "simgen/permute.h"
#include "simgen/rng.h"
#include "simgen/wire.h"

namespace {

using namespace synscan;

std::vector<net::RawFrame> sample_frames(std::size_t count) {
  simgen::Rng rng(1234);
  simgen::WireState wire(simgen::WireTool::kMasscan, rng.fork(1));
  std::vector<net::RawFrame> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::TcpFrameSpec spec;
    spec.src_ip = net::Ipv4Address(0x05060000u + static_cast<std::uint32_t>(i % 512));
    wire.craft(spec,
               net::Ipv4Address::from_octets(198, 51,
                                             static_cast<std::uint8_t>(i >> 8),
                                             static_cast<std::uint8_t>(i)),
               static_cast<std::uint16_t>(1 + rng.uniform(65535)));
    frames.push_back({static_cast<net::TimeUs>(i) * 1000, net::build_tcp_frame(spec)});
  }
  return frames;
}

void BM_BuildTcpFrame(benchmark::State& state) {
  simgen::Rng rng(1);
  simgen::WireState wire(simgen::WireTool::kZmap, rng.fork(1));
  net::TcpFrameSpec spec;
  spec.src_ip = net::Ipv4Address::from_octets(5, 6, 7, 8);
  std::uint32_t i = 0;
  for (auto unused : state) {
    (void)unused;
    wire.craft(spec, net::Ipv4Address(0xc6330000u + (i++ & 0xffff)), 443);
    benchmark::DoNotOptimize(net::build_tcp_frame(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildTcpFrame);

/// Frames -> `core::FrameBatcher` -> `sink`; returns the sensor counters.
telescope::SensorCounters feed_batched(const telescope::Telescope& telescope,
                                       const std::vector<net::RawFrame>& frames,
                                       core::ProbeBatchSink sink) {
  core::FrameBatcher batcher(telescope, std::move(sink));
  for (const auto& frame : frames) batcher.push(frame);
  return batcher.finish();
}

void BM_FingerprintEvidence(benchmark::State& state) {
  const auto frames = sample_frames(1024);
  std::vector<telescope::ScanProbe> probes;
  const auto telescope = telescope::Telescope::paper_default();
  (void)feed_batched(telescope, frames, [&](const telescope::ProbeBatch& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) probes.push_back(batch.get(i));
  });
  fingerprint::ToolEvidence evidence;
  std::size_t i = 0;
  for (auto unused : state) {
    (void)unused;
    evidence.observe(probes[i++ % probes.size()]);
  }
  benchmark::DoNotOptimize(evidence.verdict());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FingerprintEvidence);

void BM_TrackerFeed(benchmark::State& state) {
  simgen::Rng rng(7);
  core::CampaignTracker tracker({}, 71536, [](core::Campaign&&) {});
  telescope::ScanProbe probe;
  probe.destination_port = 443;
  net::TimeUs t = 0;
  for (auto unused : state) {
    (void)unused;
    probe.source = net::Ipv4Address(0x05000000u + static_cast<std::uint32_t>(rng.uniform(4096)));
    probe.destination = net::Ipv4Address(0xc6330000u + rng.next_u32() % 65536);
    probe.timestamp_us = (t += 50);
    tracker.feed(probe);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackerFeed);

void BM_EndToEndPipeline(benchmark::State& state) {
  const auto telescope = telescope::Telescope::paper_default();
  const auto frames = sample_frames(4096);
  for (auto unused : state) {
    (void)unused;
    core::Pipeline pipeline(telescope);
    pipeline.absorb_sensor_counters(feed_batched(
        telescope, frames,
        [&](const telescope::ProbeBatch& batch) { pipeline.feed_probes(batch); }));
    benchmark::DoNotOptimize(pipeline.finish());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_EndToEndPipeline)->Unit(benchmark::kMillisecond);

// Same workload as BM_EndToEndPipeline but with observability switched
// on: the delta between the two quantifies the cost of live metrics
// (the off-state overhead is the <2% acceptance bound; the on-state
// cost is what `--metrics` users pay).
void BM_EndToEndPipelineObsOn(benchmark::State& state) {
  const auto telescope = telescope::Telescope::paper_default();
  const auto frames = sample_frames(4096);
  obs::set_enabled(true);
  for (auto unused : state) {
    (void)unused;
    core::Pipeline pipeline(telescope);
    pipeline.absorb_sensor_counters(feed_batched(
        telescope, frames,
        [&](const telescope::ProbeBatch& batch) { pipeline.feed_probes(batch); }));
    benchmark::DoNotOptimize(pipeline.finish());
  }
  obs::set_enabled(false);
  obs::MetricsRegistry::global().clear();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_EndToEndPipelineObsOn)->Unit(benchmark::kMillisecond);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  // Probe metric local to this microbenchmark, deliberately undocumented.
  // synscan-lint: allow(metric-doc-sync)
  auto& counter = registry.counter("bench.counter");
  for (auto unused : state) {
    (void)unused;
    counter.add(1);
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsScopedTimer(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::set_enabled(true);
  for (auto unused : state) {
    (void)unused;
    // synscan-lint: allow(metric-doc-sync) — bench-local probe span
    const obs::ScopedTimer timer(registry, "bench.span");
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedTimer);

void BM_ParallelPipeline(benchmark::State& state) {
  const auto telescope = telescope::Telescope::paper_default();
  const auto frames = sample_frames(4096);
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto unused : state) {
    (void)unused;
    core::Pipeline pipeline(telescope, workers);
    pipeline.absorb_sensor_counters(feed_batched(
        telescope, frames,
        [&](const telescope::ProbeBatch& batch) { pipeline.feed_probes(batch); }));
    benchmark::DoNotOptimize(pipeline.finish());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_ParallelPipeline)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_Permutation(benchmark::State& state) {
  const simgen::Permutation perm(0xfeed, 71536);
  std::uint32_t i = 0;
  for (auto unused : state) {
    (void)unused;
    benchmark::DoNotOptimize(perm.at(i++ % 71536));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Permutation);

void BM_PcapWriteRead(benchmark::State& state) {
  const auto frames = sample_frames(1024);
  const auto path = std::filesystem::temp_directory_path() / "synscan_bench.pcap";
  for (auto unused : state) {
    (void)unused;
    {
      auto writer = pcap::Writer::create(path);
      for (const auto& frame : frames) writer.write(frame);
    }
    auto reader = pcap::Reader::open(path);
    benchmark::DoNotOptimize(reader.read_all());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
  state.SetLabel("write+read 1024 frames");
}
BENCHMARK(BM_PcapWriteRead)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
