// `synscan info` over the same frames stored as classic pcap and as
// pcapng: only the format lines may differ. A capture of any link layer
// but Ethernet is refused by every way in, the CLI included.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis_session.h"
#include "core/ingest.h"
#include "core/shard.h"
#include "pcap/pcap.h"
#include "test_support.h"

namespace synscan {
namespace {

namespace fs = std::filesystem;

/// `synscan info <capture>`'s stdout.
std::string info_output(const fs::path& capture) {
  ::testing::internal::CaptureStdout();
  int code = -1;
  std::string error;
  try {
    code = cli::run_info({capture.string()});
  } catch (const std::exception& thrown) {
    error = thrown.what();
  }
  // Reported only once stdout is released, or the message is captured.
  const auto out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(error, "") << capture;
  EXPECT_EQ(code, 0) << capture;
  return out;
}

/// The frame count, time span and class table: everything after the
/// format-specific header lines.
std::string from_frame_count(const std::string& output) {
  const auto at = output.find("frames:");
  return at == std::string::npos ? output : output.substr(at);
}

TEST(CliInfo, PcapngCaptureReportsLikeClassicPcap) {
  const testing::ScratchDir dir;

  // A day and a half of probes and backscatter into the default
  // telescope's dark space.
  std::vector<net::RawFrame> frames;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const std::uint8_t flags = i % 4 == 3 ? net::flag_bit(net::TcpFlag::kSyn) |
                                                net::flag_bit(net::TcpFlag::kAck)
                                          : net::flag_bit(net::TcpFlag::kSyn);
    frames.push_back({1'600'000'000 * net::kMicrosPerSecond + i * net::kMicrosPerHour,
                      testing::syn_frame(net::Ipv4Address(0x5db8d800u + i % 3),
                                         net::Ipv4Address(0xc6330700u + i), 80, flags)});
  }
  pcap::write_file(dir / "day.pcap", frames);
  testing::NgBuilder pcapng;
  pcapng.section_header().interface_block();
  for (const auto& frame : frames) {
    pcapng.enhanced_packet(0, static_cast<std::uint64_t>(frame.timestamp_us), frame.bytes);
  }
  pcapng.write(dir / "day.pcapng");

  const auto classic = info_output(dir / "day.pcap");
  const auto next_generation = info_output(dir / "day.pcapng");

  EXPECT_NE(classic.find("frames:       40 (clean end)"), std::string::npos) << classic;
  EXPECT_NE(next_generation.find("format:       pcapng"), std::string::npos)
      << next_generation;
  EXPECT_EQ(from_frame_count(next_generation), from_frame_count(classic));
}

/// What `run` threw, or "no throw"; stdout is captured and dropped.
std::string thrown_by(const std::function<void()>& run) {
  ::testing::internal::CaptureStdout();
  std::string message = "no throw";
  try {
    run();
  } catch (const std::runtime_error& error) {
    message = error.what();
  }
  (void)::testing::internal::GetCapturedStdout();
  return message;
}

TEST(NonEthernetCapture, RefusedByIngestAnalyzeAndCliWithItsLinkTypeNamed) {
  // Raw IP (LINKTYPE_RAW, 101: the Ethernet headers stripped) and Linux
  // cooked captures (LINKTYPE_LINUX_SLL, 113, what `tcpdump -i any`
  // writes), as classic pcap and as a pcapng interface.
  const testing::ScratchDir dir;
  std::vector<net::RawFrame> frames;
  for (std::uint32_t i = 0; i < 8; ++i) {
    frames.push_back({1'600'000'000 * net::kMicrosPerSecond + i,
                      testing::syn_frame(net::Ipv4Address(0x5db8d800u),
                                         net::Ipv4Address(0xc6330700u + i), 80)});
  }
  auto raw_ip = frames;
  for (auto& frame : raw_ip) {
    frame.bytes.erase(frame.bytes.begin(), frame.bytes.begin() + net::EthernetHeader::kSize);
  }
  pcap::write_file(dir / "raw.pcap", raw_ip, static_cast<pcap::LinkType>(101));
  pcap::write_file(dir / "sll.pcap", frames, static_cast<pcap::LinkType>(113));
  testing::NgBuilder pcapng;
  pcapng.section_header().interface_block(6, 113);
  for (const auto& frame : frames) {
    pcapng.enhanced_packet(0, static_cast<std::uint64_t>(frame.timestamp_us), frame.bytes);
  }
  pcapng.write(dir / "sll.pcapng");

  const auto& telescope = telescope::Telescope::paper_default();
  const auto& registry = enrich::InternetRegistry::synthetic_default();
  for (const auto& [name, link_type] : {std::pair{"raw.pcap", "101"}, std::pair{"sll.pcap", "113"},
                                        std::pair{"sll.pcapng", "113"}}) {
    SCOPED_TRACE(name);
    const auto capture = dir / name;
    const std::string refusal =
        std::string("capture link type ") + link_type +
        " is not Ethernet (1); only Ethernet II captures are read";

    std::uint64_t delivered = 0;
    EXPECT_EQ(thrown_by([&] {
                (void)core::ingest_capture(capture, telescope, core::IngestOptions{},
                                           [&](const telescope::ProbeBatch& batch) {
                                             delivered += batch.size();
                                           });
              }),
              refusal);
    EXPECT_EQ(delivered, 0u);  // no frame reached the classifier
    EXPECT_FALSE(fs::exists(capture.string() + ".spc"));

    const std::vector<fs::path> captures{capture};
    EXPECT_EQ(core::plan_shards(captures).shards.front().first_timestamp_us, 0);
    EXPECT_EQ(thrown_by([&] {
                (void)core::analyze_capture(capture, telescope, registry, 2, {});
              }),
              refusal);
    // `synscan analyze` and `synscan info` exit 1 with this message.
    EXPECT_EQ(thrown_by([&] { (void)cli::run_analyze({capture.string()}); }), refusal);
    EXPECT_EQ(thrown_by([&] { (void)cli::run_info({capture.string()}); }), refusal);
  }
}

}  // namespace
}  // namespace synscan
