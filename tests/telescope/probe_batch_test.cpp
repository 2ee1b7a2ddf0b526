#include "telescope/probe_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/ingest.h"
#include "net/endian.h"
#include "test_support.h"

namespace synscan::telescope {
namespace {

bool same_counters(const SensorCounters& a, const SensorCounters& b) {
  return a.scan_probes == b.scan_probes && a.backscatter == b.backscatter &&
         a.xmas_or_null == b.xmas_or_null && a.other_tcp == b.other_tcp &&
         a.udp == b.udp && a.icmp == b.icmp && a.not_monitored == b.not_monitored &&
         a.ingress_blocked == b.ingress_blocked && a.malformed == b.malformed &&
         a.spoofed_source == b.spoofed_source;
}

bool same_probe(const ScanProbe& a, const ScanProbe& b) {
  return a.timestamp_us == b.timestamp_us && a.source == b.source &&
         a.destination == b.destination && a.source_port == b.source_port &&
         a.destination_port == b.destination_port && a.sequence == b.sequence &&
         a.acknowledgment == b.acknowledgment && a.ip_id == b.ip_id &&
         a.window == b.window && a.ttl == b.ttl;
}

TEST(ProbeBatch, PushBackGetRoundTrip) {
  ProbeBatch batch;
  testing::ProbeBuilder builder;
  const ScanProbe original =
      builder.at(42).from(net::Ipv4Address::from_octets(9, 9, 9, 9)).seq(0xdeadbeef);
  batch.push_back(original);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(same_probe(batch.get(0), original));

  batch.clear();
  EXPECT_TRUE(batch.empty());
}

class ClassifyBatchDifferential : public ::testing::Test {
 protected:
  ClassifyBatchDifferential()
      : telescope_({{*net::Ipv4Prefix::parse("203.0.113.0/24"), 1000}},
                   {{23, 1000 * net::kMicrosPerSecond}}) {}

  /// What a `core::FrameBatcher` made of a frame sequence.
  struct Batched {
    ProbeBatch probes;  ///< every delivered batch, concatenated
    SensorCounters counters;
  };

  /// Runs the same frames through `classify` and `core::FrameBatcher`
  /// and asserts identical probes and counters.
  void expect_equivalent(const std::vector<net::RawFrame>& frames) {
    expect_matches_reference(frames, batch_frames(frames));
  }

  /// Asserts that `batched` holds exactly the probes and counters
  /// `Sensor::classify` makes of `frames`.
  void expect_matches_reference(const std::vector<net::RawFrame>& frames,
                                const Batched& batched) {
    Sensor reference(telescope_);
    std::vector<ScanProbe> expected;
    ScanProbe probe;
    for (const auto& frame : frames) {
      if (reference.classify(frame, probe) == FrameClass::kScanProbe) {
        expected.push_back(probe);
      }
    }

    const auto& batch = batched.probes;

    EXPECT_TRUE(same_counters(reference.counters(), batched.counters))
        << "counter histograms diverged";
    ASSERT_EQ(batch.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(same_probe(batch.get(i), expected[i])) << "probe " << i;
    }
  }

  /// Runs one `core::FrameBatcher` through `feed` and collects what it
  /// delivered.
  template <class Feed>
  Batched run_batcher(Feed feed) {
    Batched out;
    core::FrameBatcher batcher(telescope_, [&out](const ProbeBatch& batch) {
      for (std::size_t i = 0; i < batch.size(); ++i) out.probes.push_back(batch.get(i));
    });
    feed(batcher);
    out.counters = batcher.finish();
    return out;
  }

  /// Pushes `frames` through a `core::FrameBatcher`.
  Batched batch_frames(const std::vector<net::RawFrame>& frames) {
    return run_batcher([&frames](core::FrameBatcher& batcher) {
      for (const auto& frame : frames) batcher.push(frame);
    });
  }

  net::Ipv4Address dark_dst() { return net::Ipv4Address::from_octets(203, 0, 113, 7); }
  net::Ipv4Address src() { return net::Ipv4Address::from_octets(93, 184, 216, 34); }

  /// One frame of every sensor class — the decision-table sweep.
  std::vector<net::RawFrame> class_sweep_frames();

  Telescope telescope_;
};

std::vector<net::RawFrame> ClassifyBatchDifferential::class_sweep_frames() {
  std::vector<net::RawFrame> frames;
  const auto add = [&](net::TimeUs t, std::vector<std::uint8_t> bytes) {
    frames.push_back({t, std::move(bytes)});
  };

  add(5, testing::syn_frame(src(), dark_dst(), 80));                 // scan probe
  add(6, testing::syn_frame(src(), dark_dst(), 80,
                            net::flag_bit(net::TcpFlag::kSyn) |
                                net::flag_bit(net::TcpFlag::kAck)));  // backscatter
  add(7, testing::syn_frame(src(), dark_dst(), 80,
                            net::flag_bit(net::TcpFlag::kRst)));      // backscatter
  add(8, testing::syn_frame(src(), dark_dst(), 80, 0x3f));            // xmas
  add(9, testing::syn_frame(src(), dark_dst(), 80, 0x00));            // null
  add(10, testing::syn_frame(src(), dark_dst(), 80,
                             net::flag_bit(net::TcpFlag::kFin)));     // other tcp
  add(11, testing::syn_frame(src(), net::Ipv4Address::from_octets(203, 0, 114, 7),
                             80));                                    // not monitored
  add(12, testing::syn_frame(src(), dark_dst(), 23));                 // ingress blocked
  add(13, testing::syn_frame(net::Ipv4Address::from_octets(10, 0, 0, 1), dark_dst(),
                             80));                                    // spoofed (private)
  add(14, testing::syn_frame(net::Ipv4Address::from_octets(224, 0, 0, 1), dark_dst(),
                             80));                                    // spoofed (reserved)
  add(15, {0x01, 0x02, 0x03});                                        // malformed

  net::UdpFrameSpec udp;
  udp.src_ip = src();
  udp.dst_ip = dark_dst();
  udp.src_port = 4444;
  udp.dst_port = 53;
  add(16, net::build_udp_frame(udp));                                 // udp
  return frames;
}

TEST_F(ClassifyBatchDifferential, EveryFrameClassMatches) {
  expect_equivalent(class_sweep_frames());
}

TEST_F(ClassifyBatchDifferential, ConsumeReadsBytesOnlyDuringTheCall) {
  // `consume` borrows a frame's bytes for the call alone. Every frame
  // here passes through one buffer that is overwritten with 0xff right
  // after the call, so a batcher that kept the pointer past the call —
  // to classify frames in groups, say — would classify garbage.
  auto frames = class_sweep_frames();
  for (std::uint32_t i = 0; i < 64; ++i) {
    frames.push_back({static_cast<net::TimeUs>(100 + i),
                      testing::syn_frame(src(), dark_dst(),
                                         static_cast<std::uint16_t>(80 + i % 3))});
  }
  std::size_t longest = 0;
  for (const auto& frame : frames) longest = std::max(longest, frame.bytes.size());

  std::vector<std::uint8_t> buffer(longest, 0xff);
  const auto batched = run_batcher([&](core::FrameBatcher& batcher) {
    for (const auto& frame : frames) {
      std::copy(frame.bytes.begin(), frame.bytes.end(), buffer.begin());
      batcher.consume(frame.timestamp_us, buffer.data(),
                      static_cast<std::uint32_t>(frame.bytes.size()));
      std::fill(buffer.begin(), buffer.end(), std::uint8_t{0xff});
    }
  });
  expect_matches_reference(frames, batched);
}

TEST_F(ClassifyBatchDifferential, MutatedFramesNeverDiverge) {
  // Deterministic fuzz: take a valid SYN frame and sweep single-byte
  // mutations and truncations through every offset. Each mutant goes
  // through both classifiers; whatever the verdict, it must agree.
  const auto base = testing::syn_frame(src(), dark_dst(), 80);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<net::RawFrame> frames;
  for (std::size_t offset = 0; offset < base.size(); ++offset) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto mutant = base;
      mutant[offset] = static_cast<std::uint8_t>(mutant[offset] ^ (1u << bit));
      frames.push_back({static_cast<net::TimeUs>(offset), std::move(mutant)});
    }
    auto truncated = base;
    truncated.resize(offset);
    frames.push_back({static_cast<net::TimeUs>(offset), std::move(truncated)});
    // And a fully random frame of this length.
    std::vector<std::uint8_t> random(offset);
    for (auto& byte : random) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      byte = static_cast<std::uint8_t>(rng >> 56);
    }
    frames.push_back({static_cast<net::TimeUs>(offset), std::move(random)});
  }
  expect_equivalent(frames);
}

TEST_F(ClassifyBatchDifferential, FragmentsAndShortTransportsMatch) {
  std::vector<net::RawFrame> frames;
  // A later fragment: valid IPv4, fragment_offset != 0.
  auto fragment = testing::syn_frame(src(), dark_dst(), 80);
  fragment[14 + 6] = 0x00;
  fragment[14 + 7] = 0x07;  // fragment offset 7
  frames.push_back({1, std::move(fragment)});

  // TCP data offset below 5 words (decode_tcp rejects it).
  auto bad_offset = testing::syn_frame(src(), dark_dst(), 80);
  bad_offset[14 + 20 + 12] = 0x10;  // data offset = 1
  frames.push_back({2, std::move(bad_offset)});

  // UDP with a length field below the 8-byte minimum.
  net::UdpFrameSpec udp;
  udp.src_ip = src();
  udp.dst_ip = dark_dst();
  auto bad_udp = net::build_udp_frame(udp);
  bad_udp[14 + 20 + 4] = 0;
  bad_udp[14 + 20 + 5] = 3;  // length = 3
  frames.push_back({3, std::move(bad_udp)});

  expect_equivalent(frames);
}

}  // namespace
}  // namespace synscan::telescope
