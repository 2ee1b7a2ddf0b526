// `synscan fingerprint` against a per-probe reference: every frame goes
// through `Sensor::classify`, each scan probe feeds its source's
// evidence in a `std::map`, and the map's ascending-source walk is the
// report the command must print.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fingerprint/classifier.h"
#include "net/packet.h"
#include "pcap/pcap.h"
#include "reference_decode.h"
#include "simgen/rng.h"
#include "simgen/wire.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"
#include "test_support.h"

namespace synscan {
namespace {

namespace fs = std::filesystem;

using Evidence = std::map<std::uint32_t, fingerprint::ToolEvidence>;

/// 48 sources, six per wire tool, probing in turn, so every batch
/// interleaves them; one-off chatter (one new source per round) and
/// frames that are not probes (backscatter, a private source) between
/// the rounds. The sources are scattered, so source order is not
/// arrival order.
std::vector<net::RawFrame> mixed_frames(const telescope::Telescope& telescope) {
  constexpr simgen::WireTool kTools[] = {
      simgen::WireTool::kZmap,  simgen::WireTool::kZmapStealth,
      simgen::WireTool::kMasscan, simgen::WireTool::kMasscanStealth,
      simgen::WireTool::kMirai, simgen::WireTool::kNmap,
      simgen::WireTool::kUnicorn, simgen::WireTool::kCustom};
  constexpr std::uint16_t kPorts[] = {22, 80, 443, 8080, 3389};
  const auto dark = telescope.dark_addresses();
  simgen::Rng rng(2024);
  std::vector<net::Ipv4Address> sources;
  std::vector<simgen::WireState> wires;
  for (std::uint32_t i = 0; i < 48; ++i) {
    sources.emplace_back(0x2d000000u + rng.next_u32() % 0x00ffffffu);
    wires.emplace_back(kTools[i % std::size(kTools)], rng.fork(i));
  }

  std::vector<net::RawFrame> frames;
  net::TimeUs now = 1'600'000'000 * net::kMicrosPerSecond;
  const auto add = [&](std::vector<std::uint8_t> bytes) {
    frames.push_back({now += 1000, std::move(bytes)});
  };
  for (std::uint32_t round = 0; round < 12; ++round) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const auto destination = dark[rng.uniform(dark.size())];
      net::TcpFrameSpec spec;
      spec.src_ip = sources[s];
      spec.dst_ip = destination;
      wires[s].craft(spec, destination, kPorts[rng.uniform(std::size(kPorts))]);
      add(net::build_tcp_frame(spec));
    }
    add(testing::syn_frame(net::Ipv4Address(0x5b000000u + round * 257), dark[round], 443));
    add(testing::syn_frame(sources[round], dark[round], 80,
                           net::flag_bit(net::TcpFlag::kSyn) |
                               net::flag_bit(net::TcpFlag::kAck)));
    add(testing::syn_frame(net::Ipv4Address(0x0a000001u), dark[round], 80));
  }
  return frames;
}

/// What `synscan fingerprint <capture>` printed.
struct Output {
  std::string out;
  std::string err;
};

/// `synscan fingerprint <capture>`'s stdout and stderr.
Output fingerprint_output(const fs::path& capture) {
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  int code = -1;
  std::string error;
  try {
    code = cli::run_fingerprint({capture.string()});
  } catch (const std::exception& thrown) {
    error = thrown.what();
  }
  // Reported only once the streams are released, or the message is captured.
  Output output;
  output.err = ::testing::internal::GetCapturedStderr();
  output.out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(error, "") << capture;
  EXPECT_EQ(code, 0) << capture;
  return output;
}

std::vector<std::string> words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string word; in >> word;) out.push_back(word);
  return out;
}

/// Each source's evidence from every scan probe among `frames`.
Evidence reference_evidence(const telescope::Telescope& telescope,
                            std::span<const net::RawFrame> frames) {
  Evidence reference;
  telescope::Sensor sensor(telescope);
  telescope::ScanProbe probe;
  for (const auto& frame : frames) {
    if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
      reference[probe.source.value()].observe(probe);
    }
  }
  return reference;
}

/// The report rows the command must print for `reference`: sources in
/// ascending order, those with three probes or more, at most 40.
std::vector<std::vector<std::string>> expected_rows(const Evidence& reference) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& [source, evidence] : reference) {
    if (evidence.probes < 3) continue;
    rows.push_back({net::Ipv4Address(source).to_string(), std::to_string(evidence.probes),
                    std::string(fingerprint::to_string(evidence.verdict())),
                    std::to_string(evidence.matches(fingerprint::Tool::kZmap)),
                    std::to_string(evidence.matches(fingerprint::Tool::kMasscan)),
                    std::to_string(evidence.matches(fingerprint::Tool::kMirai)),
                    std::to_string(evidence.matches(fingerprint::Tool::kNmap)),
                    std::to_string(evidence.matches(fingerprint::Tool::kUnicorn))});
    if (rows.size() == 40) break;
  }
  return rows;
}

/// Runs the command on `capture` cold, then from the `.spc` the first
/// run wrote: each run must print `reference`'s report on stdout and
/// exactly `warning` on stderr.
void expect_report(const fs::path& capture, const Evidence& reference,
                   const std::string& warning) {
  const auto want = expected_rows(reference);
  for (const char* pass : {"cold", "cached"}) {
    const auto output = fingerprint_output(capture);
    EXPECT_EQ(output.err, warning) << pass;
    std::istringstream out(output.out);
    std::vector<std::string> lines;
    for (std::string line; std::getline(out, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), want.size() + 3) << pass;
    EXPECT_EQ(words(lines[0]),
              (std::vector<std::string>{"source", "probes", "verdict", "zmap", "masscan",
                                        "mirai", "nmap-pairs", "unicorn-pairs"}))
        << pass;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(words(lines[i + 2]), want[i]) << pass << " row " << i;
    }
    EXPECT_EQ(lines.back(), "(" + std::to_string(reference.size()) +
                                " sources total; showing up to 40 with >=3 probes)")
        << pass;
  }
  EXPECT_TRUE(fs::exists(capture.string() + ".spc"));
}

TEST(CliFingerprint, ReportMatchesPerProbeReference) {
  const testing::ScratchDir dir;
  const auto telescope = telescope::Telescope::paper_default();
  const auto frames = mixed_frames(telescope);
  pcap::write_file(dir / "mixed.pcap", frames);

  const auto reference = reference_evidence(telescope, frames);
  // The capture exercises what the report filters and caps: chatter
  // below three probes, more than 40 reportable sources, and a verdict
  // for every tool.
  std::set<fingerprint::Tool> verdicts;
  std::size_t reportable = 0;
  for (const auto& [source, evidence] : reference) {
    verdicts.insert(evidence.verdict());
    if (evidence.probes >= 3) ++reportable;
  }
  ASSERT_EQ(reference.size(), 60u);
  ASSERT_EQ(reportable, 48u);
  ASSERT_EQ(verdicts.size(), fingerprint::kToolCount);

  expect_report(dir / "mixed.pcap", reference, "");
}

TEST(CliFingerprint, TruncatedCaptureWarnsAndReportsReadablePrefix) {
  // The mixed capture cut inside the body of its middle record, as a
  // capture process killed mid-write leaves it: the report covers the
  // records before the cut, and the terminal status — kept in the
  // `.spc` — turns into a warning on both runs.
  const testing::ScratchDir dir;
  const auto telescope = telescope::Telescope::paper_default();
  const auto frames = mixed_frames(telescope);
  const auto capture = dir / "mixed.pcap";
  pcap::write_file(capture, frames);

  const std::size_t kept = frames.size() / 2;
  auto cut = pcap::kGlobalHeaderSize;
  for (std::size_t i = 0; i < kept; ++i) cut += pcap::kRecordHeaderSize + frames[i].bytes.size();
  cut += pcap::kRecordHeaderSize + frames[kept].bytes.size() / 2;
  fs::resize_file(capture, cut);

  const auto reference =
      reference_evidence(telescope, std::span(frames).first(kept));
  ASSERT_LT(reference.size(), 60u);
  expect_report(capture,
                reference,
                "warning: capture ends mid-record (truncated write?); analyzed the "
                "readable prefix\n");
}

}  // namespace
}  // namespace synscan
