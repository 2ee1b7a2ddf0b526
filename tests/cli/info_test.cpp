// `synscan info` over the same frames stored as classic pcap and as
// pcapng: only the format lines may differ.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

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
  const auto dir = fs::temp_directory_path() / "synscan_cli_info";
  fs::remove_all(dir);
  fs::create_directories(dir);

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
  fs::remove_all(dir);

  EXPECT_NE(classic.find("frames:       40 (clean end)"), std::string::npos) << classic;
  EXPECT_NE(next_generation.find("format:       pcapng"), std::string::npos)
      << next_generation;
  EXPECT_EQ(from_frame_count(next_generation), from_frame_count(classic));
}

}  // namespace
}  // namespace synscan
