#include "pcap/mapped_reader.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "net/endian.h"
#include "test_support.h"

namespace synscan::pcap {
namespace {

namespace fs = std::filesystem;

class MappedReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs cases as parallel processes, so a
    // shared directory would let one case's TearDown delete another's
    // capture mid-read.
    dir_ = fs::temp_directory_path() /
           (std::string("synscan_mapped_reader_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path path(const char* name) const { return dir_ / name; }

  static net::RawFrame frame(net::TimeUs t, std::initializer_list<std::uint8_t> bytes) {
    net::RawFrame f;
    f.timestamp_us = t;
    f.bytes = bytes;
    return f;
  }

  fs::path dir_;
};

TEST_F(MappedReaderTest, MapsRegularFilesAndMatchesReader) {
  const std::vector<net::RawFrame> frames = {
      frame(1'000'000, {1, 2, 3, 4}),
      frame(2'500'000, {5, 6}),
      frame(2'500'001, {7}),
  };
  write_file(path("basic.pcap"), frames);

  auto reader = MappedReader::open(path("basic.pcap"));
  EXPECT_TRUE(reader.mapped());
  EXPECT_EQ(reader.info().link_type, LinkType::kEthernet);

  net::FrameView view;
  for (const auto& expected : frames) {
    ASSERT_EQ(reader.next(view), ReadStatus::kOk);
    EXPECT_EQ(view.timestamp_us, expected.timestamp_us);
    EXPECT_EQ(std::vector<std::uint8_t>(view.bytes.begin(), view.bytes.end()),
              expected.bytes);
  }
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
  EXPECT_EQ(reader.frames_read(), 3u);
}

TEST_F(MappedReaderTest, StreamFallbackWalksIdentically) {
  const std::vector<net::RawFrame> frames = {frame(5, {9, 8, 7}), frame(6, {1})};
  write_file(path("stream.pcap"), frames);

  // A FIFO cannot be mapped: the reader bulk-reads it and walks the
  // buffer exactly like a mapping.
  const synscan::testing::FifoFeed fifo(path("stream.fifo"), path("stream.pcap"));
  auto reader = MappedReader::open(fifo.path());
  EXPECT_FALSE(reader.mapped());

  net::FrameView view;
  ASSERT_EQ(reader.next(view), ReadStatus::kOk);
  EXPECT_EQ(view.bytes.size(), 3u);
  ASSERT_EQ(reader.next(view), ReadStatus::kOk);
  EXPECT_EQ(view.bytes.size(), 1u);
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
}

TEST_F(MappedReaderTest, EmptyCaptureIsValid) {
  write_file(path("empty.pcap"), {});
  auto reader = MappedReader::open(path("empty.pcap"));
  net::FrameView view;
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
}

TEST_F(MappedReaderTest, ThrowsOnUnknownMagicAndShortHeader) {
  {
    std::ofstream out(path("junk.pcap"), std::ios::binary);
    const char junk[32] = "this is not a capture file!";
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW((void)MappedReader::open(path("junk.pcap")), std::runtime_error);
  {
    std::ofstream out(path("short.pcap"), std::ios::binary);
    const char bytes[10] = {};
    out.write(bytes, sizeof(bytes));
  }
  EXPECT_THROW((void)MappedReader::open(path("short.pcap")), std::runtime_error);
  EXPECT_THROW((void)MappedReader::open(path("missing.pcap")), std::runtime_error);
}

TEST_F(MappedReaderTest, MidHeaderTruncationReportedOnceThenEndOfFile) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2}), frame(2, {3, 4})};
    write_file(path("midhdr.pcap"), frames);
  }
  const auto size = fs::file_size(path("midhdr.pcap"));
  fs::resize_file(path("midhdr.pcap"), size - 2 - 9);  // 7 bytes of record 2's header

  auto reader = MappedReader::open(path("midhdr.pcap"));
  net::FrameView view;
  ASSERT_EQ(reader.next(view), ReadStatus::kOk);
  EXPECT_EQ(reader.next(view), ReadStatus::kTruncated);
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
}

TEST_F(MappedReaderTest, MidBodyTruncationReportedOnceThenEndOfFile) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2, 3, 4, 5, 6, 7, 8})};
    write_file(path("midbody.pcap"), frames);
  }
  const auto size = fs::file_size(path("midbody.pcap"));
  fs::resize_file(path("midbody.pcap"), size - 4);

  auto reader = MappedReader::open(path("midbody.pcap"));
  net::FrameView view;
  EXPECT_EQ(reader.next(view), ReadStatus::kTruncated);
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
}

TEST_F(MappedReaderTest, BigEndianMidHeaderTruncationMatchesContract) {
  std::ofstream out(path("midhdr_be.pcap"), std::ios::binary);
  const auto be16 = [&](std::uint16_t v) {
    std::uint8_t b[2];
    net::store_be16(b, v);
    out.write(reinterpret_cast<const char*>(b), 2);
  };
  const auto be32 = [&](std::uint32_t v) {
    std::uint8_t b[4];
    net::store_be32(b, v);
    out.write(reinterpret_cast<const char*>(b), 4);
  };
  be32(0xa1b2c3d4);
  be16(2);
  be16(4);
  be32(0);
  be32(0);
  be32(65535);
  be32(1);
  be32(10);  // record 1
  be32(0);
  be32(2);
  be32(2);
  out.put(0x01);
  out.put(0x02);
  be32(11);  // 4 of record 2's 16 header bytes
  out.close();

  auto reader = MappedReader::open(path("midhdr_be.pcap"));
  EXPECT_TRUE(reader.info().big_endian);
  net::FrameView view;
  ASSERT_EQ(reader.next(view), ReadStatus::kOk);
  EXPECT_EQ(view.timestamp_us, 10 * net::kMicrosPerSecond);
  EXPECT_EQ(reader.next(view), ReadStatus::kTruncated);
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
}

TEST_F(MappedReaderTest, BadRecordReportedOnceThenEndOfFile) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1, 2, 3})};
    write_file(path("bad.pcap"), frames);
  }
  std::fstream file(path("bad.pcap"), std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(24 + 8);
  std::uint8_t bytes[4];
  net::store_le32(bytes, 0x7fffffffu);
  file.write(reinterpret_cast<const char*>(bytes), 4);
  file.close();

  auto reader = MappedReader::open(path("bad.pcap"));
  net::FrameView view;
  EXPECT_EQ(reader.next(view), ReadStatus::kBadRecord);
  EXPECT_EQ(reader.next(view), ReadStatus::kEndOfFile);
}

TEST_F(MappedReaderTest, NextBatchChunksAndPreservesOrder) {
  std::vector<net::RawFrame> frames;
  for (std::uint8_t i = 0; i < 10; ++i) {
    frames.push_back(frame(i, {i, static_cast<std::uint8_t>(i + 1)}));
  }
  write_file(path("batch.pcap"), frames);

  auto reader = MappedReader::open(path("batch.pcap"));
  std::vector<net::FrameView> batch;
  std::size_t seen = 0;
  ReadStatus status;
  while ((status = reader.next_batch(batch, 4)) == ReadStatus::kOk) {
    EXPECT_LE(batch.size(), 4u);
    for (const auto& view : batch) {
      EXPECT_EQ(view.timestamp_us, static_cast<net::TimeUs>(seen));
      EXPECT_EQ(view.bytes[0], static_cast<std::uint8_t>(seen));
      ++seen;
    }
  }
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  EXPECT_EQ(seen, 10u);
  EXPECT_TRUE(batch.empty());
}

TEST_F(MappedReaderTest, NextBatchOwesTerminalStatusAfterPartialBatch) {
  {
    const std::vector<net::RawFrame> frames = {frame(1, {1}), frame(2, {2}),
                                               frame(3, {3})};
    write_file(path("owed.pcap"), frames);
  }
  const auto size = fs::file_size(path("owed.pcap"));
  fs::resize_file(path("owed.pcap"), size - 1 - 8);  // into record 3's header

  auto reader = MappedReader::open(path("owed.pcap"));
  std::vector<net::FrameView> batch;
  // All readable frames arrive as one kOk batch; the truncation is owed
  // to the next call, and after that the reader settles on kEndOfFile.
  ASSERT_EQ(reader.next_batch(batch, 8), ReadStatus::kOk);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(reader.next_batch(batch, 8), ReadStatus::kTruncated);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(reader.next_batch(batch, 8), ReadStatus::kEndOfFile);
}

TEST_F(MappedReaderTest, PartitionSplitsOnRecordBoundariesAndCoversEveryRecord) {
  std::vector<net::RawFrame> frames;
  for (std::uint32_t i = 0; i < 97; ++i) {
    // Varying lengths so chunk boundaries cannot fall on a fixed stride.
    frames.push_back(frame(i, {}));
    frames.back().bytes.assign(1 + i % 13, static_cast<std::uint8_t>(i));
  }
  write_file(path("partition.pcap"), frames);

  auto reader = MappedReader::open(path("partition.pcap"));
  const auto chunks = reader.partition(5);
  ASSERT_GE(chunks.size(), 2u);
  ASSERT_LE(chunks.size(), 5u);

  // Contiguous cover of the record region, first to last byte.
  EXPECT_EQ(chunks.front().begin, kGlobalHeaderSize);
  EXPECT_EQ(chunks.back().end, reader.byte_size());
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].begin, chunks[i - 1].end) << "gap before chunk " << i;
  }

  // Scanning the chunks in order yields the serial frame sequence.
  std::size_t seen = 0;
  for (const auto& chunk : chunks) {
    ChunkReader scanner(reader.bytes(), reader.info(), chunk);
    const auto status = scanner.scan([&](net::TimeUs timestamp_us,
                                         const std::uint8_t* data,
                                         std::uint32_t captured_length) {
      ASSERT_LT(seen, frames.size());
      EXPECT_EQ(timestamp_us, frames[seen].timestamp_us);
      ASSERT_EQ(captured_length, frames[seen].bytes.size());
      EXPECT_EQ(std::vector<std::uint8_t>(data, data + captured_length),
                frames[seen].bytes);
      ++seen;
    });
    EXPECT_EQ(status, ReadStatus::kEndOfFile);
  }
  EXPECT_EQ(seen, frames.size());
}

TEST_F(MappedReaderTest, PartitionDegeneratesToOneChunkOnTinyOrEmptyCaptures) {
  const std::vector<net::RawFrame> tiny = {frame(1, {1, 2, 3})};
  write_file(path("tiny.pcap"), tiny);
  auto reader = MappedReader::open(path("tiny.pcap"));
  const auto chunks = reader.partition(8);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, kGlobalHeaderSize);
  EXPECT_EQ(chunks[0].end, reader.byte_size());

  write_file(path("empty2.pcap"), {});
  auto empty = MappedReader::open(path("empty2.pcap"));
  const auto none = empty.partition(8);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].begin, none[0].end);
}

TEST_F(MappedReaderTest, PartitionConfinesTruncationToTheFinalChunk) {
  std::vector<net::RawFrame> frames;
  for (std::uint32_t i = 0; i < 64; ++i) {
    frames.push_back(frame(i, {}));
    frames.back().bytes.assign(32, static_cast<std::uint8_t>(i));
  }
  write_file(path("trunc_chunks.pcap"), frames);
  const auto size = fs::file_size(path("trunc_chunks.pcap"));
  fs::resize_file(path("trunc_chunks.pcap"), size - 7);  // cut into the last body

  auto reader = MappedReader::open(path("trunc_chunks.pcap"));
  const auto chunks = reader.partition(4);
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_EQ(chunks.back().end, reader.byte_size());

  std::size_t seen = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    ChunkReader scanner(reader.bytes(), reader.info(), chunks[i]);
    const auto status = scanner.scan(
        [&](net::TimeUs, const std::uint8_t*, std::uint32_t) { ++seen; });
    // Every chunk but the last ends exactly on a record boundary; only
    // the final chunk may carry the defect.
    if (i + 1 < chunks.size()) {
      EXPECT_EQ(status, ReadStatus::kEndOfFile) << "chunk " << i;
    } else {
      EXPECT_EQ(status, ReadStatus::kTruncated);
    }
  }
  EXPECT_EQ(seen, frames.size() - 1);
}

TEST_F(MappedReaderTest, ChunkScanAndNextBatchAgree) {
  std::vector<net::RawFrame> frames;
  for (std::uint32_t i = 0; i < 40; ++i) {
    frames.push_back(frame(1000 + i, {}));
    frames.back().bytes.assign(1 + i % 7, static_cast<std::uint8_t>(i));
  }
  write_file(path("scan_agree.pcap"), frames);

  auto reader = MappedReader::open(path("scan_agree.pcap"));
  const ScanChunk whole{kGlobalHeaderSize,
                        static_cast<std::size_t>(reader.byte_size())};

  std::vector<net::TimeUs> scanned;
  ChunkReader fused(reader.bytes(), reader.info(), whole);
  EXPECT_EQ(fused.scan([&](net::TimeUs timestamp_us, const std::uint8_t*,
                           std::uint32_t) { scanned.push_back(timestamp_us); }),
            ReadStatus::kEndOfFile);
  EXPECT_EQ(fused.frames_read(), frames.size());
  // A second scan on the same reader is a no-op, not a rewind.
  EXPECT_EQ(fused.scan([&](net::TimeUs, const std::uint8_t*, std::uint32_t) {
    FAIL() << "scan must not restart an exhausted chunk";
  }),
            ReadStatus::kEndOfFile);

  std::vector<net::TimeUs> batched;
  ChunkReader stepper(reader.bytes(), reader.info(), whole);
  std::vector<net::FrameView> views;
  ReadStatus status;
  while ((status = stepper.next_batch(views, 7)) == ReadStatus::kOk) {
    for (const auto& view : views) batched.push_back(view.timestamp_us);
  }
  EXPECT_EQ(status, ReadStatus::kEndOfFile);
  EXPECT_EQ(batched, scanned);
}

}  // namespace
}  // namespace synscan::pcap
