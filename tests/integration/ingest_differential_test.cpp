// Differential test for the batched ingest front-end: every ingest path
// (mmap, bulk read of a FIFO, warm probe cache, multi-worker pipeline)
// must produce the exact sensor counters, tracker counters and campaigns
// that the per-frame reference — `Sensor::classify` (reference_decode.h)
// into one-row batches, `testing::feed_one` — produces.
#include "core/ingest.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "net/endian.h"
#include "pcap/pcap.h"
#include "pcap/pcapng.h"
#include "reference_decode.h"
#include "simgen/generator.h"
#include "simgen/rng.h"
#include "test_support.h"

namespace synscan {
namespace {

namespace fs = std::filesystem;

const telescope::Telescope& test_telescope() {
  static const telescope::Telescope telescope(
      {{*net::Ipv4Prefix::parse("198.51.0.0/20"), 1000}},
      {{23, 0}});  // telnet blocked from the start
  return telescope;
}

simgen::YearConfig capture_config() {
  simgen::YearConfig config;
  config.year = 2021;
  config.window_days = 1;
  config.seed = 20240;
  config.port_table = {{80, 60}, {23, 20}, {443, 20}};
  config.noise_sources = 25;
  config.backscatter_fraction = 0.1;

  simgen::GroupSpec group;
  group.name = "ingest-group";
  group.tool = simgen::WireTool::kZmap;
  group.pool = enrich::ScannerType::kHosting;
  group.sources = 4;
  group.campaigns = 4;
  group.hits_median = 250;
  group.hits_sigma = 1.1;
  group.pps_median = 500000;
  group.pps_sigma = 1.1;
  config.groups.push_back(group);
  return config;
}

void expect_same_sensor(const telescope::SensorCounters& got,
                        const telescope::SensorCounters& want) {
  EXPECT_EQ(got.scan_probes, want.scan_probes);
  EXPECT_EQ(got.backscatter, want.backscatter);
  EXPECT_EQ(got.xmas_or_null, want.xmas_or_null);
  EXPECT_EQ(got.other_tcp, want.other_tcp);
  EXPECT_EQ(got.udp, want.udp);
  EXPECT_EQ(got.icmp, want.icmp);
  EXPECT_EQ(got.not_monitored, want.not_monitored);
  EXPECT_EQ(got.ingress_blocked, want.ingress_blocked);
  EXPECT_EQ(got.malformed, want.malformed);
  EXPECT_EQ(got.spoofed_source, want.spoofed_source);
}

void expect_same_tracking(const core::PipelineResult& got,
                          const core::PipelineResult& want) {
  EXPECT_EQ(got.tracker.probes, want.tracker.probes);
  EXPECT_EQ(got.tracker.campaigns, want.tracker.campaigns);
  EXPECT_EQ(got.tracker.subthreshold_flows, want.tracker.subthreshold_flows);
  EXPECT_EQ(got.tracker.subthreshold_packets, want.tracker.subthreshold_packets);
  EXPECT_EQ(got.tracker.expired_flows, want.tracker.expired_flows);
  EXPECT_EQ(got.tracker.sweeps, want.tracker.sweeps);

  ASSERT_EQ(got.campaigns.size(), want.campaigns.size());
  for (std::size_t i = 0; i < want.campaigns.size(); ++i) {
    EXPECT_EQ(got.campaigns[i].source, want.campaigns[i].source) << "campaign " << i;
    EXPECT_EQ(got.campaigns[i].packets, want.campaigns[i].packets) << "campaign " << i;
    EXPECT_EQ(got.campaigns[i].distinct_destinations,
              want.campaigns[i].distinct_destinations)
        << "campaign " << i;
    EXPECT_EQ(got.campaigns[i].first_seen_us, want.campaigns[i].first_seen_us)
        << "campaign " << i;
    EXPECT_EQ(got.campaigns[i].last_seen_us, want.campaigns[i].last_seen_us)
        << "campaign " << i;
  }
}

/// Per-source campaign summary: (packets, distinct destinations). The
/// parallel merge re-issues ids, so cross-driver comparisons key on the
/// source address rather than position.
std::multimap<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> summarize(
    const std::vector<core::Campaign>& campaigns) {
  std::multimap<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> out;
  for (const auto& campaign : campaigns) {
    out.emplace(campaign.source.value(),
                std::make_pair(campaign.packets, campaign.distinct_destinations));
  }
  return out;
}

/// Every probe one ingest delivered, in capture order, and its result.
struct Ingested {
  telescope::ProbeBatch probes;
  core::IngestResult result;
};

[[nodiscard]] Ingested ingest_probes(const fs::path& capture,
                                     const core::IngestOptions& options) {
  Ingested out;
  out.result = core::ingest_capture(capture, test_telescope(), options,
                                    [&](const telescope::ProbeBatch& batch) {
                                      for (std::size_t i = 0; i < batch.size(); ++i) {
                                        out.probes.push_back(batch.get(i));
                                      }
                                    });
  return out;
}

void expect_same_probes(const telescope::ProbeBatch& got, const telescope::ProbeBatch& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.timestamp_us, want.timestamp_us);
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.destination, want.destination);
  EXPECT_EQ(got.source_port, want.source_port);
  EXPECT_EQ(got.destination_port, want.destination_port);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.acknowledgment, want.acknowledgment);
  EXPECT_EQ(got.ip_id, want.ip_id);
  EXPECT_EQ(got.window, want.window);
  EXPECT_EQ(got.ttl, want.ttl);
}

class IngestDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    capture_ = dir_ / "window.pcap";

    auto writer = pcap::Writer::create(capture_);
    simgen::TrafficGenerator generator(capture_config(), test_telescope(),
                                       enrich::InternetRegistry::synthetic_default());
    (void)generator.run([&](const net::RawFrame& f) { writer.write(f); });
    writer.flush();
  }

  /// The reference: pcap::Reader record-at-a-time, classified and fed
  /// frame by frame.
  [[nodiscard]] core::PipelineResult reference_result() const {
    core::Pipeline pipeline(test_telescope());
    auto reader = pcap::Reader::open(capture_);
    const auto [frames, status] = reader.read_all();
    EXPECT_EQ(status, pcap::ReadStatus::kEndOfFile);
    testing::feed_per_frame(pipeline, test_telescope(), frames);
    return pipeline.finish();
  }

  /// Serial ingest of `input` (default: the capture file) through the
  /// given options; also returns the IngestResult so callers can assert
  /// which path ran.
  [[nodiscard]] std::pair<core::PipelineResult, core::IngestResult> ingest_result(
      const core::IngestOptions& options, const fs::path& input = {}) const {
    core::Pipeline pipeline(test_telescope());
    const auto ingest = core::ingest_capture(
        input.empty() ? capture_ : input, test_telescope(), options,
        [&](const telescope::ProbeBatch& batch) { pipeline.feed_probes(batch); });
    pipeline.absorb_sensor_counters(ingest.sensor);
    return {pipeline.finish(), ingest};
  }

  const testing::ScratchDir scratch_;
  const fs::path dir_ = scratch_.path();
  fs::path capture_;
};

TEST_F(IngestDifferential, MmapStreamAndCachePathsMatchFrameByFrameReference) {
  const auto reference = reference_result();
  ASSERT_GT(reference.sensor.scan_probes, 0u);
  ASSERT_GT(reference.campaigns.size(), 0u);

  core::IngestOptions mmap_options;
  mmap_options.use_cache = false;
  const auto [mapped, mapped_ingest] = ingest_result(mmap_options);
  EXPECT_FALSE(mapped_ingest.from_cache);
  EXPECT_GT(mapped_ingest.batches, 0u);
  expect_same_sensor(mapped.sensor, reference.sensor);
  expect_same_tracking(mapped, reference);

  core::IngestOptions stream_options;
  stream_options.use_cache = false;
  const testing::FifoFeed fifo(dir_ / "window.fifo", capture_);
  const auto [streamed, streamed_ingest] = ingest_result(stream_options, fifo.path());
  EXPECT_FALSE(streamed_ingest.mapped);
  expect_same_sensor(streamed.sensor, reference.sensor);
  expect_same_tracking(streamed, reference);

  // Cold cached run writes the .spc; warm run must come from it and
  // still match bit for bit.
  core::IngestOptions cached_options;
  const auto [cold, cold_ingest] = ingest_result(cached_options);
  EXPECT_FALSE(cold_ingest.from_cache);
  EXPECT_TRUE(fs::exists(capture_.native() + ".spc"));
  expect_same_sensor(cold.sensor, reference.sensor);
  expect_same_tracking(cold, reference);

  const auto [warm, warm_ingest] = ingest_result(cached_options);
  EXPECT_TRUE(warm_ingest.from_cache);
  EXPECT_EQ(warm_ingest.frames, cold_ingest.frames);
  EXPECT_EQ(warm_ingest.status, cold_ingest.status);
  expect_same_sensor(warm.sensor, reference.sensor);
  expect_same_tracking(warm, reference);

  // Touching the capture invalidates the cache: the next run re-decodes.
  {
    std::ofstream touch(capture_, std::ios::binary | std::ios::app);
    touch.put('\0');
  }
  const auto [stale, stale_ingest] = ingest_result(cached_options);
  EXPECT_FALSE(stale_ingest.from_cache);
  (void)stale;
}

TEST_F(IngestDifferential, FifoInputMatchesRegularFile) {
  // A FIFO hands its bytes to whichever reader opens it, once. Ingest
  // must open the capture once and sniff the format from the bytes it
  // read, or the probes, counters and terminal status diverge from the
  // file's.
  core::IngestOptions options;
  options.use_cache = false;
  const auto file = ingest_probes(capture_, options);
  ASSERT_GT(file.probes.size(), 0u);

  const testing::FifoFeed fifo(dir_ / "window.fifo", capture_);
  const auto piped = ingest_probes(fifo.path(), options);
  EXPECT_FALSE(piped.result.mapped);
  EXPECT_EQ(piped.result.frames, file.result.frames);
  EXPECT_EQ(piped.result.status, file.result.status);
  expect_same_sensor(piped.result.sensor, file.result.sensor);
  expect_same_probes(piped.probes, file.probes);
}

TEST_F(IngestDifferential, ParallelProbeFeedMatchesSerialReference) {
  const auto reference = reference_result();

  core::IngestOptions options;
  options.use_cache = false;
  core::Pipeline analyzer(test_telescope(), 3);
  const auto ingest = core::ingest_capture(
      capture_, test_telescope(), options,
      [&](const telescope::ProbeBatch& batch) { analyzer.feed_probes(batch); });
  analyzer.absorb_sensor_counters(ingest.sensor);
  const auto parallel = analyzer.finish();

  expect_same_sensor(parallel.sensor, reference.sensor);
  EXPECT_EQ(parallel.tracker.probes, reference.tracker.probes);
  EXPECT_EQ(parallel.tracker.campaigns, reference.tracker.campaigns);
  EXPECT_EQ(summarize(parallel.campaigns), summarize(reference.campaigns));
  // The merge re-issues ids 1..n in its deterministic order (which is
  // sorted, unlike the serial driver's flow-close order).
  ASSERT_EQ(parallel.campaigns.size(), reference.campaigns.size());
  for (std::size_t i = 0; i < parallel.campaigns.size(); ++i) {
    EXPECT_EQ(parallel.campaigns[i].id, i + 1);
  }
}

/// Hand-crafted captures in the four classic pcap on-disk dialects (LE
/// or BE, microseconds or nanoseconds): the batched ingest must read all
/// of them exactly like pcap::Reader, whole, cut short or corrupted.
class IngestDialects : public ::testing::Test {
 protected:
  /// One SYN to the dark net.
  [[nodiscard]] static std::vector<std::uint8_t> probe_frame() {
    return testing::syn_frame(net::Ipv4Address::from_octets(93, 184, 216, 34),
                              net::Ipv4Address::from_octets(198, 51, 0, 9), 80);
  }

  /// `count` frames cycling through every sensor class: probes, traffic
  /// off the telescope, backscatter, ingress-blocked probes, UDP and
  /// malformed frames.
  [[nodiscard]] static std::vector<std::vector<std::uint8_t>> every_class_frames(
      std::uint32_t count) {
    const auto dark = [](std::uint32_t i) { return net::Ipv4Address(0xc6330000u + i); };
    const auto source = [](std::uint32_t i) { return net::Ipv4Address(0x5db8d800u + i % 5); };
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint32_t i = 0; i < count; ++i) {
      switch (i % 6) {
        case 0:
          frames.push_back(testing::syn_frame(source(i), dark(i), 80));
          break;
        case 1:
          frames.push_back(
              testing::syn_frame(source(i), net::Ipv4Address(0x08080800u + i), 80));
          break;
        case 2:
          frames.push_back(testing::syn_frame(
              source(i), dark(i), 443,
              net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck)));
          break;
        case 3:
          frames.push_back(testing::syn_frame(source(i), dark(i), 23));  // ingress blocked
          break;
        case 4: {
          net::UdpFrameSpec udp;
          udp.src_ip = source(i);
          udp.dst_ip = dark(i);
          frames.push_back(net::build_udp_frame(udp));
          break;
        }
        default:
          frames.push_back({0x01, 0x02, 0x03});  // malformed
          break;
      }
    }
    return frames;
  }

  /// Replaces `path`'s contents with `bytes`.
  static void write_bytes(const fs::path& path, std::span<const std::uint8_t> bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// One record as stored: the sub-second field is in the unit the
  /// capture's magic names.
  struct Record {
    std::uint32_t seconds = 0;
    std::uint32_t subsec = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// Writes a classic pcap by hand so the magic/byte order/sub-second
  /// unit are exactly what the test names.
  [[nodiscard]] fs::path write_capture(const std::string& name, std::uint32_t magic,
                                       bool big_endian, const std::vector<Record>& records) {
    const auto path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    const auto u16 = [&](std::uint16_t v) {
      std::uint8_t b[2];
      big_endian ? net::store_be16(b, v) : net::store_le16(b, v);
      out.write(reinterpret_cast<const char*>(b), 2);
    };
    const auto u32 = [&](std::uint32_t v) {
      std::uint8_t b[4];
      big_endian ? net::store_be32(b, v) : net::store_le32(b, v);
      out.write(reinterpret_cast<const char*>(b), 4);
    };
    u32(magic);
    u16(2);
    u16(4);
    u32(0);
    u32(0);
    u32(65535);
    u32(1);  // ethernet
    for (const auto& record : records) {
      u32(record.seconds);
      u32(record.subsec);
      u32(static_cast<std::uint32_t>(record.bytes.size()));
      u32(static_cast<std::uint32_t>(record.bytes.size()));
      out.write(reinterpret_cast<const char*>(record.bytes.data()),
                static_cast<std::streamsize>(record.bytes.size()));
    }
    return path;
  }

  void expect_one_probe_at(const fs::path& path, net::TimeUs expected_us) {
    // pcap::Reader agrees on the timestamp…
    {
      auto reader = pcap::Reader::open(path);
      net::RawFrame frame;
      ASSERT_EQ(reader.next(frame), pcap::ReadStatus::kOk);
      EXPECT_EQ(frame.timestamp_us, expected_us);
    }
    // …and both read paths — the mapped file and the bulk read of a FIFO
    // carrying it — yield exactly one probe carrying it.
    const testing::FifoFeed fifo(path.string() + ".fifo", path);
    for (const auto& input : {path, fifo.path()}) {
      core::IngestOptions options;
      options.use_cache = false;
      std::vector<net::TimeUs> stamps;
      const auto ingest = core::ingest_capture(
          input, test_telescope(), options, [&](const telescope::ProbeBatch& batch) {
            stamps.insert(stamps.end(), batch.timestamp_us.begin(),
                          batch.timestamp_us.end());
          });
      EXPECT_EQ(ingest.sensor.scan_probes, 1u);
      EXPECT_EQ(ingest.frames, 1u);
      EXPECT_EQ(ingest.status, pcap::ReadStatus::kEndOfFile);
      ASSERT_EQ(stamps.size(), 1u);
      EXPECT_EQ(stamps[0], expected_us);
    }
  }

  const testing::ScratchDir scratch_;
  const fs::path dir_ = scratch_.path();
};

TEST_F(IngestDialects, MicrosecondNanosecondAndBigEndianCapturesAgree) {
  const net::TimeUs expected = 3 * net::kMicrosPerSecond + 5;
  expect_one_probe_at(write_capture("le_us.pcap", 0xa1b2c3d4, false, {{3, 5, probe_frame()}}),
                      expected);
  expect_one_probe_at(
      write_capture("le_ns.pcap", 0xa1b23c4d, false, {{3, 5000, probe_frame()}}), expected);
  expect_one_probe_at(write_capture("be_us.pcap", 0xa1b2c3d4, true, {{3, 5, probe_frame()}}),
                      expected);
  expect_one_probe_at(write_capture("be_ns.pcap", 0xa1b23c4d, true, {{3, 5000, probe_frame()}}),
                      expected);
}

TEST_F(IngestDialects, TruncatedCaptureKeepsProbesAndReportsStatus) {
  const auto path = write_capture("trunc.pcap", 0xa1b2c3d4, false, {{3, 5, probe_frame()}});
  // Append 7 bytes of a second record header: one whole probe survives,
  // the terminal status flips to kTruncated, and the cache preserves it.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char partial[7] = {};
    out.write(partial, sizeof(partial));
  }
  core::IngestOptions options;
  std::size_t probes = 0;
  const auto cold = core::ingest_capture(
      path, test_telescope(), options,
      [&](const telescope::ProbeBatch& batch) { probes += batch.size(); });
  EXPECT_EQ(cold.status, pcap::ReadStatus::kTruncated);
  EXPECT_EQ(cold.frames, 1u);
  EXPECT_EQ(probes, 1u);
  EXPECT_FALSE(cold.from_cache);

  probes = 0;
  const auto warm = core::ingest_capture(
      path, test_telescope(), options,
      [&](const telescope::ProbeBatch& batch) { probes += batch.size(); });
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.status, pcap::ReadStatus::kTruncated);
  EXPECT_EQ(warm.frames, 1u);
  EXPECT_EQ(probes, 1u);
  expect_same_sensor(warm.sensor, cold.sensor);
}

/// What one read path made of a capture.
struct Outcome {
  bool threw = false;
  bool from_cache = false;
  std::uint64_t frames = 0;
  pcap::ReadStatus status = pcap::ReadStatus::kEndOfFile;
  telescope::SensorCounters sensor;
  telescope::ProbeBatch probes;
};

void expect_same_outcome(const Outcome& got, const Outcome& want) {
  ASSERT_EQ(got.threw, want.threw);
  EXPECT_EQ(got.frames, want.frames);
  EXPECT_EQ(got.status, want.status);
  expect_same_sensor(got.sensor, want.sensor);
  expect_same_probes(got.probes, want.probes);
}

/// The reference: `CaptureReader` (`pcap::Reader` or `pcap::NgReader`)
/// record-at-a-time into the reference `Sensor::classify`. A throw — at
/// open, or at a pcapng interface that is not Ethernet — leaves no
/// result, as it leaves none from ingest.
template <typename CaptureReader>
Outcome reference_outcome(std::span<const std::uint8_t> image) {
  Outcome out;
  try {
    auto reader = CaptureReader::over(image);
    telescope::Sensor sensor(test_telescope());
    net::RawFrame frame;
    telescope::ScanProbe probe;
    while ((out.status = reader.next(frame)) == pcap::ReadStatus::kOk) {
      ++out.frames;
      if (sensor.classify(frame, probe) == telescope::FrameClass::kScanProbe) {
        out.probes.push_back(probe);
      }
    }
    out.sensor = sensor.counters();
  } catch (const std::runtime_error&) {
    out = Outcome{};
    out.threw = true;
  }
  return out;
}

Outcome ingest_outcome(const fs::path& capture, bool use_cache = false) {
  Outcome out;
  try {
    core::IngestOptions options;
    options.use_cache = use_cache;
    auto ingested = ingest_probes(capture, options);
    out.from_cache = ingested.result.from_cache;
    out.frames = ingested.result.frames;
    out.status = ingested.result.status;
    out.sensor = ingested.result.sensor;
    out.probes = std::move(ingested.probes);
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  return out;
}

TEST_F(IngestDialects, EveryTruncationAndHeaderByteFlipMatchesStreamReader) {
  // A small capture of every sensor class, cut at every length and with
  // each record-header byte flipped, in all four dialects. Ingest must
  // agree with the reference on the throw, the frames, the terminal
  // status, the counters and the probes.
  const auto frames = every_class_frames(48);

  struct Dialect {
    const char* name;
    std::uint32_t magic;
    bool big_endian;
    std::uint32_t subsec_per_us;
  };
  const auto variant = dir_ / "variant.pcap";
  for (const auto& dialect : {Dialect{"le_us", 0xa1b2c3d4, false, 1},
                              Dialect{"le_ns", 0xa1b23c4d, false, 1000},
                              Dialect{"be_us", 0xa1b2c3d4, true, 1},
                              Dialect{"be_ns", 0xa1b23c4d, true, 1000}}) {
    std::vector<Record> records;
    std::vector<std::size_t> header_offsets;
    std::size_t offset = pcap::kGlobalHeaderSize;
    for (std::uint32_t i = 0; i < frames.size(); ++i) {
      records.push_back({3 + i / 7, i * 7919 * dialect.subsec_per_us, frames[i]});
      header_offsets.push_back(offset);
      offset += pcap::kRecordHeaderSize + frames[i].size();
    }
    const auto whole = testing::slurp(
        write_capture(std::string(dialect.name) + ".pcap", dialect.magic, dialect.big_endian,
                      records));
    const std::vector<std::uint8_t> image(whole.begin(), whole.end());

    const auto check = [&](std::span<const std::uint8_t> bytes, const std::string& label) {
      SCOPED_TRACE(std::string(dialect.name) + " " + label);
      write_bytes(variant, bytes);
      expect_same_outcome(ingest_outcome(variant), reference_outcome<pcap::Reader>(bytes));
    };

    for (std::size_t cut = 0; cut <= image.size() && !HasFailure(); ++cut) {
      check(std::span(image).first(cut), "cut at " + std::to_string(cut));
    }
    auto flipped = image;
    for (const auto at : header_offsets) {
      for (std::size_t byte = at; byte < at + pcap::kRecordHeaderSize && !HasFailure(); ++byte) {
        flipped[byte] ^= 0xff;
        check(flipped, "byte " + std::to_string(byte) + " flipped");
        flipped[byte] ^= 0xff;
      }
    }
  }
}

TEST_F(IngestDialects, EveryPcapngTruncationAndByteFlipMatchesNgReader) {
  // A small pcapng with a little-endian and a big-endian section, three
  // timestamp resolutions, two interfaces, a Simple Packet Block and an
  // unknown block, cut at every length and with every byte flipped. A
  // cold ingest (which writes the `.spc`) and the warm replay from it
  // must both agree with `NgReader` + `Sensor::classify` on the throw,
  // the frames, the terminal status, the counters and the probes.
  const auto frames = every_class_frames(24);
  testing::NgBuilder le;
  le.section_header().interface_block(6).interface_block(0x8a);
  for (std::uint32_t i = 0; i < 12; ++i) {
    le.enhanced_packet(i % 2, (i % 2 == 0 ? 1'000'000ull : 1024ull) * (3 + i / 5) + i * 37,
                       frames[i]);
    if (i == 5) le.unknown_block();
  }
  le.simple_packet(frames[0]);
  testing::NgBuilder be(/*big_endian=*/true);
  be.section_header().interface_block(9);
  for (std::uint32_t i = 12; i < frames.size(); ++i) {
    be.enhanced_packet(0, 1'000'000'000ull * (5 + i / 5) + i * 7919, frames[i]);
  }
  std::vector<std::uint8_t> image = le.bytes();
  image.insert(image.end(), be.bytes().begin(), be.bytes().end());

  const auto variant = dir_ / "variant.pcapng";
  const auto cache = fs::path(variant.native() + ".spc");
  const auto check = [&](std::span<const std::uint8_t> bytes, const std::string& label) {
    SCOPED_TRACE(label);
    write_bytes(variant, bytes);
    // Variants of one size can share an mtime, so a cache left by the
    // previous variant could pass as this one's.
    fs::remove(cache);
    const auto want = reference_outcome<pcap::NgReader>(bytes);
    const auto cold = ingest_outcome(variant, /*use_cache=*/true);
    EXPECT_FALSE(cold.from_cache);
    expect_same_outcome(cold, want);
    const auto warm = ingest_outcome(variant, /*use_cache=*/true);
    EXPECT_EQ(warm.from_cache, !want.threw);
    expect_same_outcome(warm, want);
  };

  for (std::size_t cut = 0; cut <= image.size() && !HasFailure(); ++cut) {
    check(std::span(image).first(cut), "cut at " + std::to_string(cut));
  }
  auto flipped = image;
  for (std::size_t byte = 0; byte < image.size() && !HasFailure(); ++byte) {
    flipped[byte] ^= 0xff;
    check(flipped, "byte " + std::to_string(byte) + " flipped");
    flipped[byte] ^= 0xff;
  }
}

/// The cached ingest paths over a multi-megabyte capture — the cold
/// scan that writes the `.spc` and the warm replay from it — pinned to
/// the uncached scan. The capture (~7 MB: over 4 MiB, 27 batches) is
/// synthesized directly rather than through the slower simgen pipeline.
class IngestMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    capture_ = dir_ / "matrix.pcap";

    simgen::Rng rng(20250809);
    auto writer = pcap::Writer::create(capture_);
    net::RawFrame frame;
    net::TimeUs now = 0;
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      now += 35;
      frame.timestamp_us = now;
      const std::uint64_t draw = rng.next_u64() % 100;
      net::TcpFrameSpec tcp;
      tcp.src_ip = net::Ipv4Address(0x05000000u + rng.next_u32() % (1u << 20));
      tcp.dst_ip = net::Ipv4Address(0xc6330000u + rng.next_u32() % 4096);
      tcp.src_port = static_cast<std::uint16_t>(40000 + rng.next_u32() % 20000);
      tcp.dst_port = (draw % 3 == 0) ? 443 : 80;
      tcp.sequence = rng.next_u32();
      tcp.ip_id = static_cast<std::uint16_t>(rng.next_u32());
      if (draw < 70) {
        // scan probe (defaults: SYN)
      } else if (draw < 80) {
        tcp.flags =
            net::flag_bit(net::TcpFlag::kSyn) | net::flag_bit(net::TcpFlag::kAck);
      } else if (draw < 88) {
        tcp.dst_ip = net::Ipv4Address(0x08080000u + rng.next_u32() % 65536);
      } else if (draw < 95) {
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
      frame.bytes = net::build_tcp_frame(tcp);
      writer.write(frame);
    }
    writer.flush();
    ASSERT_GE(fs::file_size(capture_), std::size_t{4} << 20) << "capture below 4 MiB";
  }

  [[nodiscard]] Ingested run(const core::IngestOptions& options) const {
    return ingest_probes(capture_, options);
  }

  static constexpr std::uint64_t kFrames = 110'000;
  const testing::ScratchDir scratch_;
  const fs::path dir_ = scratch_.path();
  fs::path capture_;
};

TEST_F(IngestMatrix, SimdChunksAndCodecAllMatchScalarSerialReference) {
  core::IngestOptions reference_options;
  reference_options.use_cache = false;
  const auto reference = run(reference_options);
  ASSERT_GT(reference.probes.size(), 0u);
  ASSERT_EQ(reference.result.status, pcap::ReadStatus::kEndOfFile);

  // Two cold scans write the `.spc` to two places: the bytes depend only
  // on the probe stream, and each warm read of them round-trips.
  std::vector<char> first_cache;
  for (const char* name : {"matrix_a.spc", "matrix_b.spc"}) {
    SCOPED_TRACE(name);
    core::IngestOptions options;
    options.cache_path = dir_ / name;
    const auto cold = run(options);

    EXPECT_FALSE(cold.result.from_cache);
    EXPECT_EQ(cold.result.frames, reference.result.frames);
    EXPECT_EQ(cold.result.status, reference.result.status);
    EXPECT_EQ(cold.result.batches, reference.result.batches);
    expect_same_probes(cold.probes, reference.probes);
    expect_same_sensor(cold.result.sensor, reference.result.sensor);

    const auto bytes = testing::slurp(options.cache_path);
    ASSERT_FALSE(bytes.empty());
    if (first_cache.empty()) first_cache = bytes;
    EXPECT_TRUE(first_cache == bytes) << "cache bytes differ from the first file";

    const auto warm = run(options);
    EXPECT_TRUE(warm.result.from_cache);
    EXPECT_EQ(warm.result.frames, reference.result.frames);
    EXPECT_EQ(warm.result.status, reference.result.status);
    expect_same_probes(warm.probes, reference.probes);
    expect_same_sensor(warm.result.sensor, reference.result.sensor);
  }
}

TEST_F(IngestMatrix, ColdScanAndWarmReplayStreamThroughOneBatchBuffer) {
  // Nothing is buffered between stages beyond the current batch: the
  // cold scan classifies into one batch and hands it over as it fills,
  // and the warm replay decodes every `.spc` chunk into one batch. Each
  // refills its buffer in place, so the sink sees a single address.
  core::IngestOptions options;
  options.cache_path = dir_ / "stream.spc";
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    std::set<const net::TimeUs*> buffers;
    std::uint64_t probes = 0;
    const auto ingest = core::ingest_capture(
        capture_, test_telescope(), options, [&](const telescope::ProbeBatch& batch) {
          buffers.insert(batch.timestamp_us.data());
          probes += batch.size();
        });
    EXPECT_EQ(ingest.from_cache, warm);
    EXPECT_GT(ingest.batches, 1u);
    EXPECT_EQ(probes, ingest.sensor.scan_probes);
    EXPECT_EQ(buffers.size(), 1u);
  }
}

TEST_F(IngestMatrix, CorruptCacheFallsBackToRescanAndRewrites) {
  const auto spc = dir_ / "fallback.spc";
  core::IngestOptions options;
  options.cache_path = spc;
  const auto cold = run(options);
  ASSERT_FALSE(cold.result.from_cache);
  ASSERT_TRUE(fs::exists(spc));

  // Flip one byte deep in the compressed probe stream: the checksum
  // walk rejects the cache and ingest re-scans the capture — no crash,
  // identical probes, and a fresh valid cache left behind.
  {
    std::fstream file(spc, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(4096);
    char byte = 0;
    file.seekg(4096);
    file.get(byte);
    file.seekp(4096);
    file.put(static_cast<char>(byte ^ 0x20));
  }
  const auto rescanned = run(options);
  EXPECT_FALSE(rescanned.result.from_cache);
  expect_same_probes(rescanned.probes, cold.probes);
  expect_same_sensor(rescanned.result.sensor, cold.result.sensor);

  const auto warm = run(options);
  EXPECT_TRUE(warm.result.from_cache);
  expect_same_probes(warm.probes, cold.probes);
}

}  // namespace
}  // namespace synscan
