#include "pcap/pcapng.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <fstream>
#include <vector>

#include "core/ingest.h"
#include "net/endian.h"
#include "pcap/pcap.h"
#include "telescope/probe_batch.h"
#include "test_support.h"

namespace synscan::pcap {
namespace {

namespace fs = std::filesystem;

using synscan::testing::NgBuilder;

class PcapngTest : public ::testing::Test {
 protected:
  [[nodiscard]] fs::path path(const char* name) const { return dir_ / name; }
  const testing::ScratchDir scratch_;
  const fs::path dir_ = scratch_.path();
};

TEST_F(PcapngTest, ReadsEnhancedPackets) {
  NgBuilder builder;
  builder.section_header()
      .interface_block(6)
      .enhanced_packet(0, 5'000'123, {0xaa, 0xbb, 0xcc})
      .enhanced_packet(0, 6'000'456, {0x01});
  builder.write(path("basic.pcapng"));

  auto reader = NgReader::open(path("basic.pcapng"));
  auto [frames, status] = reader.read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].timestamp_us, 5'000'123);  // µs resolution: ticks are µs
  EXPECT_EQ(frames[0].bytes, (std::vector<std::uint8_t>{0xaa, 0xbb, 0xcc}));
  EXPECT_EQ(frames[1].timestamp_us, 6'000'456);
  EXPECT_EQ(reader.interfaces_seen(), 1u);
}

TEST_F(PcapngTest, NanosecondResolutionNormalizes) {
  NgBuilder builder;
  builder.section_header().interface_block(9).enhanced_packet(
      0, 1'500'000'789ull, {0x42});  // 1.500000789 s in ns ticks
  builder.write(path("ns.pcapng"));
  auto reader = NgReader::open(path("ns.pcapng"));
  net::RawFrame frame;
  ASSERT_EQ(reader.next(frame), ReadStatus::kOk);
  EXPECT_EQ(frame.timestamp_us, 1'500'000);
}

TEST_F(PcapngTest, Power2ResolutionNormalizes) {
  // tsresol 0x8A = 2^-10 ticks (1024 per second).
  NgBuilder builder;
  builder.section_header().interface_block(0x8A).enhanced_packet(0, 2048, {0x42});
  builder.write(path("p2.pcapng"));
  auto reader = NgReader::open(path("p2.pcapng"));
  net::RawFrame frame;
  ASSERT_EQ(reader.next(frame), ReadStatus::kOk);
  EXPECT_EQ(frame.timestamp_us, 2 * net::kMicrosPerSecond);
}

TEST_F(PcapngTest, SimplePacketBlocksWork) {
  NgBuilder builder;
  builder.section_header().interface_block().simple_packet({9, 8, 7, 6, 5});
  builder.write(path("spb.pcapng"));
  auto [frames, status] = NgReader::open(path("spb.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].bytes.size(), 5u);
  EXPECT_EQ(frames[0].timestamp_us, 0);
}

TEST_F(PcapngTest, UnknownBlocksAreSkipped) {
  NgBuilder builder;
  builder.section_header()
      .interface_block()
      .unknown_block()
      .enhanced_packet(0, 1, {0x11})
      .unknown_block();
  builder.write(path("mixed.pcapng"));
  auto [frames, status] = NgReader::open(path("mixed.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  EXPECT_EQ(frames.size(), 1u);
}

TEST_F(PcapngTest, BigEndianSections) {
  NgBuilder builder(/*big_endian=*/true);
  builder.section_header().interface_block(6).enhanced_packet(0, 777, {0x01, 0x02});
  builder.write(path("be.pcapng"));
  auto [frames, status] = NgReader::open(path("be.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].timestamp_us, 777);
}

TEST_F(PcapngTest, RejectsNonPcapng) {
  std::ofstream out(path("junk.pcapng"), std::ios::binary);
  out << "definitely not a capture";
  out.close();
  EXPECT_THROW((void)NgReader::open(path("junk.pcapng")), std::runtime_error);
}

TEST_F(PcapngTest, TruncatedBlockReported) {
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {1, 2, 3, 4});
  builder.write(path("trunc.pcapng"));
  fs::resize_file(path("trunc.pcapng"), fs::file_size(path("trunc.pcapng")) - 6);
  auto [frames, status] = NgReader::open(path("trunc.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kTruncated);
  EXPECT_TRUE(frames.empty());
}

TEST_F(PcapngTest, CorruptTrailerIsBadRecord) {
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {1, 2, 3, 4});
  builder.write(path("bad.pcapng"));
  // Flip a byte in the trailing total-length of the last block.
  std::fstream file(path("bad.pcapng"), std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(-2, std::ios::end);
  file.put(static_cast<char>(0x5a));
  file.close();
  auto [frames, status] = NgReader::open(path("bad.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kBadRecord);
}

TEST_F(PcapngTest, CorruptBlockEndsTheCapture) {
  // An EPB whose trailing length disagrees with its head, then a valid
  // EPB: framing is lost, so the reader must not resume past it.
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {1, 2, 3, 4});
  auto image = builder.bytes();
  net::store_le32(image.data() + image.size() - 4, 0xdeadbeef);
  NgBuilder valid;
  valid.enhanced_packet(0, 2, {5, 6, 7, 8});
  image.insert(image.end(), valid.bytes().begin(), valid.bytes().end());

  auto reader = NgReader::over(image);
  net::RawFrame frame;
  EXPECT_EQ(reader.next(frame), ReadStatus::kBadRecord);
  EXPECT_EQ(reader.next(frame), ReadStatus::kEndOfFile);
  EXPECT_EQ(reader.next(frame), ReadStatus::kEndOfFile);
}

/// Where the trailing length of an `NgBuilder::section_header` block
/// sits, from the block's first byte (the block is 28 bytes long).
constexpr std::size_t kShbTrailer = 24;

TEST_F(PcapngTest, CorruptFirstSectionTrailerThrows) {
  // Section Header Blocks pass the same framing check as every other
  // block; the first one failing it is not a pcapng capture.
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {0x01});
  auto image = builder.bytes();
  net::store_le32(image.data() + kShbTrailer, 0xdeadbeef);
  EXPECT_THROW((void)NgReader::over(image), std::runtime_error);
}

TEST_F(PcapngTest, CorruptLaterSectionTrailerIsBadRecord) {
  NgBuilder first;
  first.section_header().interface_block().enhanced_packet(0, 10, {0x01});
  NgBuilder second;
  second.section_header().interface_block().enhanced_packet(0, 20, {0x02});
  auto image = first.bytes();
  const auto second_at = image.size();
  image.insert(image.end(), second.bytes().begin(), second.bytes().end());
  net::store_le32(image.data() + second_at + kShbTrailer, 0xdeadbeef);

  auto [frames, status] = NgReader::over(image).read_all();
  EXPECT_EQ(status, ReadStatus::kBadRecord);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].timestamp_us, 10);
}

TEST_F(PcapngTest, TsresolBeyondSixtyFourBitsIsBadRecord) {
  // 2^-64 and finer, and 10^-20 and finer, name more ticks per second
  // than 64 bits hold: the interface block is corrupt, and the capture
  // ends there with the frames before it kept.
  for (const std::uint8_t tsresol : {std::uint8_t{0x80 | 64}, std::uint8_t{0xff},
                                     std::uint8_t{20}, std::uint8_t{0x7f}}) {
    SCOPED_TRACE(static_cast<int>(tsresol));
    NgBuilder builder;
    builder.section_header()
        .interface_block(6)
        .enhanced_packet(0, 7'000'001, {0x01})
        .interface_block(tsresol)
        .enhanced_packet(1, 123'456, {0x02});
    builder.write(path("tsresol.pcapng"));
    auto [frames, status] = NgReader::open(path("tsresol.pcapng")).read_all();
    EXPECT_EQ(status, ReadStatus::kBadRecord);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].timestamp_us, 7'000'001);
  }
}

TEST_F(PcapngTest, TimestampBeyondTimeUsIsBadRecord) {
  // A high word of 0xffffffff at microsecond resolution is ~1.8e19 µs,
  // past INT64_MAX: the packet block is corrupt.
  NgBuilder builder;
  builder.section_header()
      .interface_block(6)
      .enhanced_packet(0, 9'000'000, {0x01})
      .enhanced_packet(0, 0xffffffff00000000ull, {0x02})
      .enhanced_packet(0, 9'000'001, {0x03});
  builder.write(path("far.pcapng"));
  auto [frames, status] = NgReader::open(path("far.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kBadRecord);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].timestamp_us, 9'000'000);
}

TEST_F(PcapngTest, FinestRepresentableResolutionsConvertExactly) {
  // 10^-19 and 2^-63 still fit 64 bits. Their sub-second remainders
  // times 10^6 do not, and must not wrap.
  NgBuilder builder;
  builder.section_header()
      .interface_block(19)
      .interface_block(0x80 | 63)
      .enhanced_packet(0, 15'000'000'000'000'000'000ull, {0x01})  // 1.5 s
      .enhanced_packet(1, (1ull << 63) + (1ull << 62), {0x02});    // 1.5 s
  builder.write(path("fine.pcapng"));
  auto [frames, status] = NgReader::open(path("fine.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].timestamp_us, 1'500'000);
  EXPECT_EQ(frames[1].timestamp_us, 1'500'000);
}

TEST_F(PcapngTest, MultipleSectionsResetInterfaces) {
  NgBuilder builder;
  builder.section_header()
      .interface_block(6)
      .enhanced_packet(0, 10, {1})
      .section_header()
      .interface_block(9)  // new section: ns resolution
      .enhanced_packet(0, 3'000, {2});
  builder.write(path("sections.pcapng"));
  auto [frames, status] = NgReader::open(path("sections.pcapng")).read_all();
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].timestamp_us, 10);  // µs ticks
  EXPECT_EQ(frames[1].timestamp_us, 3);   // ns ticks -> 3 µs
}

TEST_F(PcapngTest, FormatDispatchReadsBoth) {
  // pcapng...
  NgBuilder builder;
  builder.section_header().interface_block().enhanced_packet(0, 1, {0x77});
  builder.write(path("dispatch.pcapng"));
  EXPECT_TRUE(looks_like_pcapng(builder.bytes()));
  auto [ng_frames, ng_status] = read_any_capture(path("dispatch.pcapng"));
  EXPECT_EQ(ng_frames.size(), 1u);

  // ...and classic pcap through the same entry point.
  const std::vector<net::RawFrame> classic = {{123, {0x01, 0x02}}};
  write_file(path("dispatch.pcap"), classic);
  EXPECT_FALSE(looks_like_pcapng(MappedFile::open(path("dispatch.pcap")).bytes()));
  auto [frames, status] = read_any_capture(path("dispatch.pcap"));
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].timestamp_us, 123);
}

TEST_F(PcapngTest, IngestBatchesMatchClassicPcap) {
  // pcapng records reach core::FrameBatcher through `push`; the same
  // frames as a classic pcap through the mapped `Reader::scan` walk into
  // `consume`. Both must
  // deliver identical probes, counters and batch boundaries. 5000 frames
  // span a full batch and a partial one.
  const telescope::Telescope telescope({{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}},
                                       {});
  std::vector<net::RawFrame> frames;
  NgBuilder builder;
  builder.section_header().interface_block();
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const auto dark = net::Ipv4Address(0xc6330000u + i % 4096);
    net::RawFrame frame{static_cast<net::TimeUs>(i) * 10, {}};
    switch (i % 5) {
      case 0:  // backscatter
        frame.bytes = synscan::testing::syn_frame(net::Ipv4Address(0x05000000u + i), dark, 80,
                                                  net::flag_bit(net::TcpFlag::kRst));
        break;
      case 1:  // off the telescope
        frame.bytes = synscan::testing::syn_frame(net::Ipv4Address(0x05000000u + i),
                                                  net::Ipv4Address(0x08080808u), 443);
        break;
      case 2:  // malformed
        frame.bytes = {0x01, 0x02, 0x03};
        break;
      default:  // scan probe
        frame.bytes = synscan::testing::syn_frame(net::Ipv4Address(0x05000000u + i % 64),
                                                  dark, 443);
        break;
    }
    builder.enhanced_packet(0, static_cast<std::uint64_t>(frame.timestamp_us), frame.bytes);
    frames.push_back(std::move(frame));
  }
  builder.write(path("ingest.pcapng"));
  write_file(path("ingest.pcap"), frames);

  const auto ingest = [&](const fs::path& capture, telescope::ProbeBatch& probes) {
    core::IngestOptions options;
    options.use_cache = false;
    return core::ingest_capture(capture, telescope, options,
                                [&probes](const telescope::ProbeBatch& batch) {
                                  for (std::size_t i = 0; i < batch.size(); ++i) {
                                    probes.push_back(batch.get(i));
                                  }
                                });
  };
  telescope::ProbeBatch ng_probes;
  telescope::ProbeBatch classic_probes;
  const auto ng = ingest(path("ingest.pcapng"), ng_probes);
  const auto classic = ingest(path("ingest.pcap"), classic_probes);

  EXPECT_EQ(ng.frames, 5000u);
  EXPECT_EQ(ng.frames, classic.frames);
  EXPECT_EQ(ng.status, ReadStatus::kEndOfFile);
  EXPECT_EQ(ng.status, classic.status);
  EXPECT_EQ(ng.batches, 2u);
  EXPECT_EQ(ng.batches, classic.batches);
  EXPECT_EQ(ng.sensor.scan_probes, 2000u);
  EXPECT_EQ(ng.sensor.scan_probes, classic.sensor.scan_probes);
  EXPECT_EQ(ng.sensor.backscatter, classic.sensor.backscatter);
  EXPECT_EQ(ng.sensor.not_monitored, classic.sensor.not_monitored);
  EXPECT_EQ(ng.sensor.malformed, classic.sensor.malformed);
  EXPECT_EQ(ng.sensor.total(), classic.sensor.total());
  EXPECT_EQ(ng_probes.timestamp_us, classic_probes.timestamp_us);
  EXPECT_EQ(ng_probes.source, classic_probes.source);
  EXPECT_EQ(ng_probes.destination, classic_probes.destination);
  EXPECT_EQ(ng_probes.sequence, classic_probes.sequence);
  EXPECT_EQ(ng_probes.ip_id, classic_probes.ip_id);
}

}  // namespace
}  // namespace synscan::pcap
