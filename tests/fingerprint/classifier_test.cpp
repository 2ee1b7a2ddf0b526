#include "fingerprint/classifier.h"

#include <gtest/gtest.h>

#include "simgen/rng.h"
#include "simgen/wire.h"
#include "test_support.h"

namespace synscan::fingerprint {
namespace {

using synscan::testing::ProbeBuilder;

telescope::ScanProbe wire_probe(simgen::WireState& wire, std::uint32_t dst_value,
                                std::uint16_t port) {
  net::TcpFrameSpec spec;
  const net::Ipv4Address dst(dst_value);
  wire.craft(spec, dst, port);
  telescope::ScanProbe probe;
  probe.destination = dst;
  probe.source_port = spec.src_port;
  probe.destination_port = port;
  probe.sequence = spec.sequence;
  probe.ip_id = spec.ip_id;
  return probe;
}

struct ToolCase {
  simgen::WireTool wire;
  Tool expected;
};

class ClassifierToolTest : public ::testing::TestWithParam<ToolCase> {};

TEST_P(ClassifierToolTest, StreamOfProbesYieldsExpectedVerdict) {
  simgen::Rng rng(13);
  simgen::WireState wire(GetParam().wire, rng.fork(static_cast<std::uint64_t>(GetParam().wire)));
  ToolEvidence evidence;
  for (int i = 0; i < 50; ++i) {
    evidence.observe(wire_probe(wire, 0xcb007100u + rng.next_u32() % 65536,
                                static_cast<std::uint16_t>(1 + rng.uniform(65535))));
  }
  EXPECT_EQ(evidence.verdict(), GetParam().expected);
  EXPECT_EQ(evidence.probes, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTools, ClassifierToolTest,
    ::testing::Values(ToolCase{simgen::WireTool::kZmap, Tool::kZmap},
                      ToolCase{simgen::WireTool::kZmapStealth, Tool::kUnknown},
                      ToolCase{simgen::WireTool::kMasscan, Tool::kMasscan},
                      ToolCase{simgen::WireTool::kMasscanStealth, Tool::kUnknown},
                      ToolCase{simgen::WireTool::kMirai, Tool::kMirai},
                      ToolCase{simgen::WireTool::kNmap, Tool::kNmap},
                      ToolCase{simgen::WireTool::kUnicorn, Tool::kUnicorn},
                      ToolCase{simgen::WireTool::kCustom, Tool::kUnknown}));

TEST(ToolEvidence, EmptyIsUnknown) {
  const ToolEvidence evidence;
  EXPECT_EQ(evidence.verdict(), Tool::kUnknown);
  EXPECT_EQ(evidence.probes, 0u);
}

TEST(ToolEvidence, SingleProbeIsInsufficient) {
  ToolEvidence evidence;
  evidence.observe(ProbeBuilder().ipid(54321));
  // min_matches defaults to 2: one marked packet could be coincidence.
  EXPECT_EQ(evidence.verdict(), Tool::kUnknown);
  evidence.observe(ProbeBuilder().ipid(54321));
  EXPECT_EQ(evidence.verdict(), Tool::kZmap);
}

TEST(ToolEvidence, MixedTrafficBelowFractionStaysUnknown) {
  ToolEvidence evidence;
  // 3 ZMap-marked probes buried in 17 random ones: 15% < 50% fraction.
  simgen::Rng rng(21);
  for (int i = 0; i < 17; ++i) {
    evidence.observe(ProbeBuilder().ipid(rng.next_u16()).seq(rng.next_u32()));
  }
  for (int i = 0; i < 3; ++i) evidence.observe(ProbeBuilder().ipid(54321));
  EXPECT_EQ(evidence.verdict(), Tool::kUnknown);
  EXPECT_EQ(evidence.matches(Tool::kZmap), 3u);
}

TEST(ToolEvidence, SinglePacketToolsBeatPairwiseCoincidence) {
  // A Mirai stream with constant ports also satisfies the Unicorn pair
  // relation (all relation terms cancel); the verdict must still be
  // Mirai because single-packet evidence has priority.
  ToolEvidence evidence;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const net::Ipv4Address dst(0xcb007100u + i);
    evidence.observe(
        ProbeBuilder().to(dst).seq(dst.value()).sport(5555).port(23).ipid(7));
  }
  EXPECT_GT(evidence.matches(Tool::kUnicorn), 0u);
  EXPECT_EQ(evidence.verdict(), Tool::kMirai);
}

TEST(ToolEvidence, ConfigurableThresholds) {
  ClassifierConfig config;
  config.min_matches = 10;
  ToolEvidence evidence;
  for (int i = 0; i < 9; ++i) evidence.observe(ProbeBuilder().ipid(54321));
  EXPECT_EQ(evidence.verdict(config), Tool::kUnknown);
  EXPECT_EQ(evidence.verdict(), Tool::kZmap);  // the default needs two matches
  evidence.observe(ProbeBuilder().ipid(54321));
  EXPECT_EQ(evidence.verdict(config), Tool::kZmap);
}

TEST(ToolEvidence, MatchesPerToolAreTracked) {
  ToolEvidence evidence;
  evidence.observe(ProbeBuilder().ipid(54321).seq(1));
  evidence.observe(ProbeBuilder().ipid(54321).seq(1));
  EXPECT_EQ(evidence.matches(Tool::kZmap), 2u);
  EXPECT_EQ(evidence.matches(Tool::kMirai), 0u);
  EXPECT_EQ(evidence.matches(Tool::kUnknown), 0u);
  // Identical sequences trivially satisfy the NMap relation.
  EXPECT_EQ(evidence.matches(Tool::kNmap), 1u);
}

TEST(ToolTally, SharesSumToOne) {
  ToolTally tally;
  tally.add(Tool::kZmap, 10);
  tally.add(Tool::kMasscan, 30);
  tally.add(Tool::kUnknown, 60);
  EXPECT_DOUBLE_EQ(tally.share(Tool::kZmap), 0.1);
  EXPECT_DOUBLE_EQ(tally.share(Tool::kMasscan), 0.3);
  EXPECT_DOUBLE_EQ(tally.known_share(), 0.4);
  EXPECT_EQ(tally.total(), 100u);
}

TEST(ToolTally, EmptyTallyHasZeroShares) {
  const ToolTally tally;
  EXPECT_EQ(tally.share(Tool::kZmap), 0.0);
  EXPECT_EQ(tally.known_share(), 0.0);
}

TEST(Tool, NamesRoundTrip) {
  for (const auto tool : kAllTools) {
    EXPECT_EQ(tool_from_string(to_string(tool)), tool);
  }
  EXPECT_EQ(tool_from_string("definitely-not-a-tool"), Tool::kUnknown);
}

}  // namespace
}  // namespace synscan::fingerprint
