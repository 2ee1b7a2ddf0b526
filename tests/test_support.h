// Shared helpers for the test suites.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/ingest.h"
#include "core/pipeline.h"
#include "enrich/registry.h"
#include "net/packet.h"
#include "simgen/generator.h"
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
/// classifies them in batches into `analyzer.feed_probes` (a
/// `core::Pipeline` or `core::ParallelAnalyzer`), then the sensor
/// counters are absorbed.
template <typename Analyzer>
void feed_batched(Analyzer& analyzer, const telescope::Telescope& telescope,
                  std::span<const net::RawFrame> frames) {
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    analyzer.feed_probes(batch);
  });
  for (const auto& frame : frames) batcher.push(frame);
  analyzer.absorb_sensor_counters(batcher.finish());
}

/// Simulates `config` straight into `analyzer` through the same front
/// door as `feed_batched`.
template <typename Analyzer>
simgen::GeneratorStats generate_into(Analyzer& analyzer,
                                     const telescope::Telescope& telescope,
                                     simgen::YearConfig config) {
  simgen::TrafficGenerator generator(std::move(config), telescope,
                                     enrich::InternetRegistry::synthetic_default());
  core::FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& batch) {
    analyzer.feed_probes(batch);
  });
  const auto stats = generator.run([&](const net::RawFrame& frame) { batcher.push(frame); });
  analyzer.absorb_sensor_counters(batcher.finish());
  return stats;
}

/// The per-frame reference the batched front door is tested against:
/// each frame through `Sensor::classify`, each probe through
/// `Pipeline::feed_probe`, then the sensor counters are absorbed.
inline void feed_per_frame(core::Pipeline& pipeline, const telescope::Telescope& telescope,
                           std::span<const net::RawFrame> frames) {
  telescope::Sensor sensor(telescope);
  for (const auto& frame : frames) {
    telescope::ScanProbe probe;
    if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
      pipeline.feed_probe(probe);
    }
  }
  pipeline.absorb_sensor_counters(sensor.counters());
}

}  // namespace synscan::testing
