// Unit tests for the flat inline-first containers behind the tracker
// hot path (docs/PERFORMANCE.md): HybridU32Set, PortPacketMap and
// FlowIndexTable, plus the tracker-level pooling behaviour they enable.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flow_table.h"
#include "core/hybrid_set.h"
#include "core/port_map.h"
#include "core/tracker.h"
#include "simgen/rng.h"
#include "test_support.h"

namespace synscan::core {
namespace {

TEST(HybridU32Set, InlineInsertAndDuplicates) {
  HybridU32Set set;
  for (std::uint32_t i = 0; i < HybridU32Set::kInlineCapacity; ++i) {
    EXPECT_TRUE(set.insert(i * 7));
    EXPECT_FALSE(set.insert(i * 7));  // duplicate
  }
  EXPECT_EQ(set.size(), HybridU32Set::kInlineCapacity);
  EXPECT_FALSE(set.promoted());
  for (std::uint32_t i = 0; i < HybridU32Set::kInlineCapacity; ++i) {
    EXPECT_TRUE(set.contains(i * 7));
  }
  EXPECT_FALSE(set.contains(999));
}

TEST(HybridU32Set, PromotesPastInlineCapacity) {
  HybridU32Set set;
  for (std::uint32_t i = 0; i < HybridU32Set::kInlineCapacity; ++i) {
    set.insert(i);
  }
  EXPECT_FALSE(set.promoted());
  EXPECT_TRUE(set.insert(HybridU32Set::kInlineCapacity));
  EXPECT_TRUE(set.promoted());
  EXPECT_EQ(set.size(), HybridU32Set::kInlineCapacity + 1);
  // Everything inserted pre-promotion is still present.
  for (std::uint32_t i = 0; i <= HybridU32Set::kInlineCapacity; ++i) {
    EXPECT_TRUE(set.contains(i));
    EXPECT_FALSE(set.insert(i));
  }
}

TEST(HybridU32Set, HandlesZeroValue) {
  // 0 is the empty-slot sentinel internally; the set must still store it.
  HybridU32Set set;
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
  // And past promotion too.
  for (std::uint32_t i = 1; i <= 40; ++i) set.insert(i);
  EXPECT_TRUE(set.promoted());
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_EQ(set.size(), 41u);
}

TEST(HybridU32Set, MatchesStdSetUnderChurn) {
  HybridU32Set set;
  std::set<std::uint32_t> model;
  simgen::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const auto value = rng.next_u32() % 4096;
    EXPECT_EQ(set.insert(value), model.insert(value).second);
    EXPECT_EQ(set.size(), model.size());
  }
  for (std::uint32_t value = 0; value < 4096; ++value) {
    EXPECT_EQ(set.contains(value), model.count(value) == 1) << value;
  }
}

TEST(HybridU32Set, ClearRetainsPromotedCapacity) {
  HybridU32Set set;
  for (std::uint32_t i = 0; i < 5000; ++i) set.insert(i);
  ASSERT_TRUE(set.promoted());
  const auto capacity = set.slot_capacity();
  EXPECT_GT(capacity, 0u);

  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.promoted());
  EXPECT_FALSE(set.contains(123));

  // Re-promotion starts from the recycled backing store, not from the
  // initial 64 slots: the pool reuse path allocates nothing new until
  // the set outgrows its previous high-water mark.
  for (std::uint32_t i = 0; i < 5000; ++i) set.insert(i + 1000000);
  EXPECT_EQ(set.slot_capacity(), capacity);
}

TEST(PortPacketMap, InlineAccumulation) {
  PortPacketMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.add(443, 2));
  EXPECT_FALSE(map.add(443, 3));  // existing key
  EXPECT_EQ(map.at(443), 5u);
  EXPECT_EQ(map.get(443), 5u);
  EXPECT_EQ(map.get(80), 0u);
  EXPECT_TRUE(map.contains(443));
  EXPECT_FALSE(map.contains(80));
  EXPECT_THROW((void)map.at(80), std::out_of_range);
  map[80] += 7;
  EXPECT_EQ(map.get(80), 7u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_FALSE(map.promoted());
}

TEST(PortPacketMap, PromotesPastInlineCapacity) {
  PortPacketMap map;
  for (std::uint16_t p = 0; p < PortPacketMap::kInlineCapacity; ++p) {
    map.add(static_cast<std::uint16_t>(p * 3), p + 1);
  }
  EXPECT_FALSE(map.promoted());
  map.add(60000, 42);
  EXPECT_TRUE(map.promoted());
  EXPECT_EQ(map.size(), PortPacketMap::kInlineCapacity + 1);
  for (std::uint16_t p = 0; p < PortPacketMap::kInlineCapacity; ++p) {
    EXPECT_EQ(map.get(static_cast<std::uint16_t>(p * 3)), p + 1u);
  }
  EXPECT_EQ(map.get(60000), 42u);
}

TEST(PortPacketMap, IterationCoversAllEntries) {
  PortPacketMap map;
  std::map<std::uint16_t, std::uint64_t> model;
  simgen::Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    const auto port = static_cast<std::uint16_t>(rng.uniform(1000));
    const std::uint64_t n = 1 + rng.uniform(10);
    map.add(port, n);
    model[port] += n;
  }
  ASSERT_TRUE(map.promoted());
  std::map<std::uint16_t, std::uint64_t> seen;
  for (const auto& [port, packets] : map) {
    EXPECT_TRUE(seen.emplace(port, packets).second) << "duplicate port " << port;
  }
  EXPECT_EQ(seen, model);
}

TEST(PortPacketMap, ClearRetainsPromotedCapacity) {
  PortPacketMap map;
  for (std::uint32_t p = 0; p < 2000; ++p) {
    map.add(static_cast<std::uint16_t>(p), 1);
  }
  ASSERT_TRUE(map.promoted());
  const auto capacity = map.slot_capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.promoted());
  for (std::uint32_t p = 0; p < 2000; ++p) {
    map.add(static_cast<std::uint16_t>(p + 10000), 1);
  }
  EXPECT_EQ(map.slot_capacity(), capacity);
}

/// `n` distinct ports drawn from a seeded shuffle of all 65,536, each
/// with a packet count of its own.
std::vector<std::pair<std::uint16_t, std::uint64_t>> random_rows(std::size_t n,
                                                                 std::uint64_t seed) {
  std::vector<std::uint16_t> ports(PortPacketMap::kMaxPorts);
  for (std::size_t p = 0; p < ports.size(); ++p) ports[p] = static_cast<std::uint16_t>(p);
  simgen::Rng rng(seed);
  for (std::size_t i = ports.size() - 1; i > 0; --i) {
    std::swap(ports[i], ports[rng.uniform(i + 1)]);
  }
  std::vector<std::pair<std::uint16_t, std::uint64_t>> rows;
  for (std::size_t i = 0; i < n; ++i) rows.emplace_back(ports[i], 1 + rng.uniform(1000));
  return rows;
}

TEST(PortPacketMap, SortedRowsMatchSortReference) {
  // One buffer for every map, as the `.spr` writer reuses it: sizes
  // around the inline capacity and the radix digit, then every port,
  // and back down, so stale rows must never leak into a shorter map.
  std::vector<PortPacketMap::value_type> rows;
  const std::size_t sizes[] = {0, 1, 8, 9, 255, 256, 257, 4096, 65536, 9, 1, 0};
  std::uint64_t seed = 1;
  for (const auto n : sizes) {
    SCOPED_TRACE("size " + std::to_string(n));
    auto expected = random_rows(n, seed++);
    PortPacketMap map;
    for (const auto& [port, packets] : expected) map.add(port, packets);
    std::sort(expected.begin(), expected.end());
    map.sorted_rows(rows);
    EXPECT_EQ(rows, expected);
  }
  // A byte shared by every row skips its radix pass: all ports below
  // 256 (one high byte) and all multiples of 256 (one low byte).
  for (const std::uint32_t stride : {1u, 256u}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    PortPacketMap map;
    std::vector<PortPacketMap::value_type> expected;
    for (std::uint32_t i = 256; i-- > 0;) {
      map.add(static_cast<std::uint16_t>(i * stride), i + 1);
      expected.emplace_back(static_cast<std::uint16_t>(i * stride), i + 1);
    }
    std::sort(expected.begin(), expected.end());
    map.sorted_rows(rows);
    EXPECT_EQ(rows, expected);
  }
}

TEST(PortPacketMap, ReserveThenAddsEqualsAddsAlone) {
  std::vector<PortPacketMap::value_type> reserved_rows;
  std::vector<PortPacketMap::value_type> plain_rows;
  for (const std::size_t n : {0u, 1u, 8u, 9u, 100u, 5000u}) {
    SCOPED_TRACE("size " + std::to_string(n));
    const auto rows = random_rows(n, 40 + n);
    PortPacketMap reserved;
    reserved.reserve(n);
    const auto capacity = reserved.slot_capacity();
    PortPacketMap plain;
    for (const auto& [port, packets] : rows) {
      reserved.add(port, packets);
      plain.add(port, packets);
    }
    // Sized once: the adds did not regrow the table, and it is the
    // table the adds alone grew to.
    EXPECT_EQ(reserved.slot_capacity(), capacity);
    EXPECT_EQ(reserved.slot_capacity(), plain.slot_capacity());
    EXPECT_EQ(reserved.size(), n);
    reserved.sorted_rows(reserved_rows);
    plain.sorted_rows(plain_rows);
    EXPECT_EQ(reserved_rows, plain_rows);
  }
  // A reserve keeps what the map already holds, inline or promoted.
  for (const std::size_t held : {3u, 20u}) {
    SCOPED_TRACE("held " + std::to_string(held));
    const auto rows = random_rows(held + 30, 7);
    PortPacketMap reserved;
    PortPacketMap plain;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i == held) reserved.reserve(rows.size());
      reserved.add(rows[i].first, rows[i].second);
      plain.add(rows[i].first, rows[i].second);
    }
    reserved.sorted_rows(reserved_rows);
    plain.sorted_rows(plain_rows);
    EXPECT_EQ(reserved_rows, plain_rows);
  }
}

TEST(PortPacketMap, ReservePastEveryPortIsCapped) {
  PortPacketMap every_port;
  for (std::uint32_t p = 0; p < PortPacketMap::kMaxPorts; ++p) {
    every_port.add(static_cast<std::uint16_t>(p), 1);
  }
  for (const std::size_t n : {std::size_t{65536}, std::size_t{65537}, std::size_t{1} << 40}) {
    PortPacketMap map;
    map.reserve(n);
    EXPECT_EQ(map.slot_capacity(), every_port.slot_capacity()) << n;
  }
}

TEST(FlowIndexTable, InsertFindEraseChurnMatchesStdMap) {
  FlowIndexTable table;
  std::unordered_map<std::uint32_t, std::uint32_t> model;
  simgen::Rng rng(31);
  std::uint32_t next_value = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto key = rng.next_u32() % 30000;
    const auto op = rng.uniform(10);
    if (op < 6) {
      auto [value, inserted] = table.find_or_insert(key);
      auto [it, model_inserted] = model.try_emplace(key, 0);
      EXPECT_EQ(inserted, model_inserted) << "key " << key;
      if (inserted) {
        value = next_value++;
        it->second = value;
      } else {
        EXPECT_EQ(value, it->second) << "key " << key;
      }
    } else if (op < 8) {
      const auto* found = table.find(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(found, nullptr) << "key " << key;
      } else {
        ASSERT_NE(found, nullptr) << "key " << key;
        EXPECT_EQ(*found, it->second);
      }
    } else {
      EXPECT_EQ(table.erase(key), model.erase(key) == 1) << "key " << key;
    }
    EXPECT_EQ(table.size(), model.size());
  }
  // for_each visits exactly the live set.
  std::unordered_map<std::uint32_t, std::uint32_t> visited;
  table.for_each([&](std::uint32_t key, std::uint32_t value) {
    EXPECT_TRUE(visited.emplace(key, value).second) << "duplicate key " << key;
  });
  EXPECT_EQ(visited.size(), model.size());
  for (const auto& [key, value] : model) {
    const auto it = visited.find(key);
    ASSERT_NE(it, visited.end()) << "key " << key;
    EXPECT_EQ(it->second, value);
  }
}

TEST(FlowIndexTable, ClearRetainsCapacityAndRehashCounter) {
  FlowIndexTable table;
  for (std::uint32_t key = 0; key < 100000; ++key) {
    table.find_or_insert(key).first = key;
  }
  EXPECT_GT(table.rehashes(), 0u);
  const auto rehashes = table.rehashes();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  // Refilling to the same size needs no further rehash.
  for (std::uint32_t key = 0; key < 100000; ++key) {
    table.find_or_insert(key).first = key;
  }
  EXPECT_EQ(table.rehashes(), rehashes);
}

TEST(TrackerPooling, ExpiryRestartReusesFlowInPlace) {
  TrackerConfig config;
  config.min_distinct_destinations = 1;
  config.min_internet_pps = 0.0;
  std::vector<Campaign> campaigns;
  CampaignTracker tracker(config, 1000,
                          [&](Campaign&& c) { campaigns.push_back(std::move(c)); });

  const auto src = net::Ipv4Address(0x01020304);
  for (std::uint32_t d = 0; d < 64; ++d) {
    tracker.feed(synscan::testing::ProbeBuilder()
                     .from(src)
                     .to(net::Ipv4Address(0xc6330000u + d))
                     .port(static_cast<std::uint16_t>(d))
                     .at(1000 + d));
  }
  // Same source returns after expiry: its flow is closed and reset in
  // place — counted as both an expiry and a reuse, with no flow freed
  // to (or drawn from) the pool.
  tracker.feed(synscan::testing::ProbeBuilder()
                   .from(src)
                   .to(net::Ipv4Address(0xc6330001u))
                   .port(80)
                   .at(1000 + 3 * net::kMicrosPerHour));
  EXPECT_EQ(tracker.counters().expired_flows, 1u);
  EXPECT_EQ(tracker.counters().flow_reuses, 1u);
  EXPECT_EQ(tracker.pooled_free_flows(), 0u);
  EXPECT_EQ(tracker.open_flows(), 1u);
  ASSERT_EQ(campaigns.size(), 1u);
  EXPECT_EQ(campaigns[0].distinct_destinations, 64u);

  tracker.finish();
  ASSERT_EQ(campaigns.size(), 2u);
  EXPECT_EQ(campaigns[1].distinct_destinations, 1u);
}

TEST(TrackerPooling, SweepReturnsFlowsToPoolForReuse) {
  TrackerConfig config;
  config.sweep_interval = 8;
  config.min_distinct_destinations = 1;
  config.min_internet_pps = 0.0;
  std::uint64_t closed = 0;
  CampaignTracker tracker(config, 1000, [&](Campaign&&) { ++closed; });

  // Eight sources, then a quiet gap plus eight fresh sources: the sweep
  // evicts the first population and the second draws from the pool.
  for (std::uint32_t s = 0; s < 8; ++s) {
    tracker.feed(synscan::testing::ProbeBuilder()
                     .from(net::Ipv4Address(0x0a000000u + s))
                     .to(net::Ipv4Address(0xc6330000u + s))
                     .port(80)
                     .at(1000 + s));
  }
  const auto later = 1000 + 3 * net::kMicrosPerHour;
  for (std::uint32_t s = 0; s < 8; ++s) {
    tracker.feed(synscan::testing::ProbeBuilder()
                     .from(net::Ipv4Address(0x0b000000u + s))
                     .to(net::Ipv4Address(0xc6330000u + s))
                     .port(443)
                     .at(later + s));
  }
  EXPECT_EQ(tracker.counters().sweeps, 2u);
  EXPECT_EQ(tracker.counters().expired_flows, 8u);
  EXPECT_EQ(closed, 8u);
  EXPECT_EQ(tracker.open_flows(), 8u);
  // The sweep returned the first population's flows to the free list.
  EXPECT_EQ(tracker.pooled_free_flows(), 8u);

  // A third batch of fresh sources draws those pooled flows back out
  // instead of growing the pool.
  for (std::uint32_t s = 0; s < 4; ++s) {
    tracker.feed(synscan::testing::ProbeBuilder()
                     .from(net::Ipv4Address(0x0c000000u + s))
                     .to(net::Ipv4Address(0xc6330000u + s))
                     .port(22)
                     .at(later + 100 + s));
  }
  EXPECT_EQ(tracker.counters().flow_reuses, 4u);
  EXPECT_EQ(tracker.pooled_free_flows(), 4u);
  EXPECT_EQ(tracker.open_flows(), 12u);
}

TEST(TrackerPooling, PromotionCountersFire) {
  TrackerConfig config;
  std::vector<Campaign> campaigns;
  CampaignTracker tracker(config, 1000,
                          [&](Campaign&& c) { campaigns.push_back(std::move(c)); });
  const auto src = net::Ipv4Address(0x01020304);
  for (std::uint32_t d = 0; d < HybridU32Set::kInlineCapacity + 4; ++d) {
    for (std::uint32_t p = 0; p < PortPacketMap::kInlineCapacity + 4; ++p) {
      tracker.feed(synscan::testing::ProbeBuilder()
                       .from(src)
                       .to(net::Ipv4Address(0xc6330000u + d))
                       .port(static_cast<std::uint16_t>(1000 + p))
                       .at(1000 + d * 100 + p));
    }
  }
  EXPECT_EQ(tracker.counters().dest_promotions, 1u);
  EXPECT_EQ(tracker.counters().port_promotions, 1u);
}

}  // namespace
}  // namespace synscan::core
