#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_set>

namespace synscan::net {
namespace {

TEST(Ipv4Address, DefaultIsZero) {
  EXPECT_EQ(Ipv4Address().value(), 0u);
  EXPECT_EQ(Ipv4Address().to_string(), "0.0.0.0");
}

TEST(Ipv4Address, FromOctetsRoundTrips) {
  const auto addr = Ipv4Address::from_octets(192, 0, 2, 33);
  EXPECT_EQ(addr.octet(0), 192);
  EXPECT_EQ(addr.octet(1), 0);
  EXPECT_EQ(addr.octet(2), 2);
  EXPECT_EQ(addr.octet(3), 33);
  EXPECT_EQ(addr.to_string(), "192.0.2.33");
}

TEST(Ipv4Address, ParseValid) {
  const auto addr = Ipv4Address::parse("10.20.30.40");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), "10.20.30.40");
}

TEST(Ipv4Address, ParseBoundaryValues) {
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255")->value(), 0xffffffffu);
}

struct ParseCase {
  const char* text;
  bool valid;
};

// Names each case by its input. Without it the case prints as a byte dump
// of the struct, which holds the string's address, so the discovered test
// names would change from build to build.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << '"' << c.text << "\" " << (c.valid ? "valid" : "invalid");
}

class Ipv4ParseTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(Ipv4ParseTest, AcceptsExactlyWellFormedInput) {
  EXPECT_EQ(Ipv4Address::parse(GetParam().text).has_value(), GetParam().valid)
      << "input: " << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Syntax, Ipv4ParseTest,
    ::testing::Values(ParseCase{"1.2.3.4", true}, ParseCase{"001.002.003.004", true},
                      ParseCase{"256.1.1.1", false}, ParseCase{"1.2.3", false},
                      ParseCase{"1.2.3.4.5", false}, ParseCase{"", false},
                      ParseCase{"1..2.3", false}, ParseCase{"a.b.c.d", false},
                      ParseCase{"1.2.3.4 ", false}, ParseCase{" 1.2.3.4", false},
                      ParseCase{"-1.2.3.4", false}, ParseCase{"1.2.3.+4", false},
                      ParseCase{"1.2.3.999", false}, ParseCase{"1.2.3.4x", false},
                      ParseCase{"0000.1.1.1", false}));

TEST(Ipv4Address, RoundTripsThroughString) {
  for (const std::uint32_t value : {0u, 1u, 0x01020304u, 0xc0a80101u, 0xffffffffu}) {
    const Ipv4Address addr(value);
    const auto reparsed = Ipv4Address::parse(addr.to_string());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->value(), value);
  }
}

TEST(Ipv4Address, Slash16Buckets) {
  EXPECT_EQ(Ipv4Address::from_octets(198, 51, 0, 1).slash16(), (198u << 8) | 51u);
  EXPECT_EQ(Ipv4Address::from_octets(198, 51, 255, 255).slash16(),
            Ipv4Address::from_octets(198, 51, 0, 0).slash16());
  EXPECT_NE(Ipv4Address::from_octets(198, 51, 0, 0).slash16(),
            Ipv4Address::from_octets(198, 52, 0, 0).slash16());
}

TEST(Ipv4Address, Slash24Buckets) {
  EXPECT_EQ(Ipv4Address::from_octets(1, 2, 3, 4).slash24(),
            Ipv4Address::from_octets(1, 2, 3, 200).slash24());
  EXPECT_NE(Ipv4Address::from_octets(1, 2, 3, 4).slash24(),
            Ipv4Address::from_octets(1, 2, 4, 4).slash24());
}

TEST(Ipv4Address, ReservedSources) {
  EXPECT_TRUE(Ipv4Address::from_octets(0, 1, 2, 3).is_reserved_source());
  EXPECT_TRUE(Ipv4Address::from_octets(127, 0, 0, 1).is_reserved_source());
  EXPECT_TRUE(Ipv4Address::from_octets(224, 0, 0, 1).is_reserved_source());
  EXPECT_TRUE(Ipv4Address::from_octets(255, 255, 255, 255).is_reserved_source());
  EXPECT_FALSE(Ipv4Address::from_octets(8, 8, 8, 8).is_reserved_source());
  EXPECT_FALSE(Ipv4Address::from_octets(223, 255, 255, 255).is_reserved_source());
}

TEST(Ipv4Address, PrivateRanges) {
  EXPECT_TRUE(Ipv4Address::from_octets(10, 0, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address::from_octets(172, 16, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address::from_octets(172, 31, 255, 255).is_private());
  EXPECT_FALSE(Ipv4Address::from_octets(172, 32, 0, 1).is_private());
  EXPECT_TRUE(Ipv4Address::from_octets(192, 168, 1, 1).is_private());
  EXPECT_FALSE(Ipv4Address::from_octets(192, 169, 1, 1).is_private());
  EXPECT_FALSE(Ipv4Address::from_octets(11, 0, 0, 1).is_private());
}

TEST(Ipv4Address, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4Address::from_octets(1, 0, 0, 0), Ipv4Address::from_octets(2, 0, 0, 0));
  EXPECT_LT(Ipv4Address::from_octets(1, 2, 3, 4), Ipv4Address::from_octets(1, 2, 3, 5));
}

TEST(Ipv4Address, HashSpreadsSequentialAddresses) {
  std::unordered_set<std::size_t> hashes;
  const std::hash<Ipv4Address> hasher;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    hashes.insert(hasher(Ipv4Address(0x0a000000u + i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on a small sequential run
}

TEST(Ipv4Prefix, CanonicalizesHostBits) {
  const Ipv4Prefix prefix(Ipv4Address::from_octets(198, 51, 100, 77), 16);
  EXPECT_EQ(prefix.base().to_string(), "198.51.0.0");
  EXPECT_EQ(prefix.to_string(), "198.51.0.0/16");
}

TEST(Ipv4Prefix, SizeByLength) {
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 32).size(), 1u);
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 24).size(), 256u);
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 16).size(), 65536u);
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 0).size(), std::uint64_t{1} << 32);
}

TEST(Ipv4Prefix, ContainsItsRangeOnly) {
  const auto prefix = Ipv4Prefix::parse("198.51.0.0/16");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_TRUE(prefix->contains(Ipv4Address::from_octets(198, 51, 0, 0)));
  EXPECT_TRUE(prefix->contains(Ipv4Address::from_octets(198, 51, 255, 255)));
  EXPECT_FALSE(prefix->contains(Ipv4Address::from_octets(198, 52, 0, 0)));
  EXPECT_FALSE(prefix->contains(Ipv4Address::from_octets(198, 50, 255, 255)));
}

TEST(Ipv4Prefix, ZeroLengthContainsEverything) {
  const Ipv4Prefix all(Ipv4Address(), 0);
  EXPECT_TRUE(all.contains(Ipv4Address(0u)));
  EXPECT_TRUE(all.contains(Ipv4Address(0xffffffffu)));
}

TEST(Ipv4Prefix, AtIndexesAddresses) {
  const auto prefix = Ipv4Prefix::parse("10.0.0.0/24");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->at(0).to_string(), "10.0.0.0");
  EXPECT_EQ(prefix->at(255).to_string(), "10.0.0.255");
}

TEST(Ipv4Prefix, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0/8").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/8x").has_value());
}

TEST(Ipv4Prefix, ParseAcceptsFullRange) {
  for (int len = 0; len <= 32; ++len) {
    const auto text = "10.0.0.0/" + std::to_string(len);
    EXPECT_TRUE(Ipv4Prefix::parse(text).has_value()) << text;
  }
}

}  // namespace
}  // namespace synscan::net
