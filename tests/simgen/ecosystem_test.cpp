#include "simgen/ecosystem.h"

#include <gtest/gtest.h>

namespace synscan::simgen {
namespace {

TEST(Ecosystem, AllYearsBuild) {
  const auto configs = all_year_configs();
  ASSERT_EQ(configs.size(), 10u);
  for (const auto& config : configs) {
    EXPECT_GE(config.year, kFirstYear);
    EXPECT_LE(config.year, kLastYear);
    EXPECT_FALSE(config.groups.empty()) << config.year;
    EXPECT_GT(config.noise_sources, 0u) << config.year;
    EXPECT_FALSE(config.port_table.empty()) << config.year;
    EXPECT_FALSE(config.noise_port_table.empty()) << config.year;
  }
}

TEST(Ecosystem, WindowsMatchPaperBounds) {
  // §3.2: between 29 and 61 days of uninterrupted data per year.
  for (const auto& config : all_year_configs()) {
    EXPECT_GE(config.window_days, 29.0) << config.year;
    EXPECT_LE(config.window_days, 61.0) << config.year;
  }
}

TEST(Ecosystem, WindowsStartInTheRightYear) {
  for (const auto& config : all_year_configs()) {
    // January 15 of `year`: between 45*365 and 55*365 days after epoch
    // for our range; verify the year via a coarse round trip.
    const auto days = config.start_time / net::kMicrosPerDay;
    const auto approx_year = 1970 + static_cast<int>(static_cast<double>(days) / 365.25);
    EXPECT_EQ(approx_year, config.year);
  }
}

TEST(Ecosystem, OutOfRangeYearThrows) {
  EXPECT_THROW((void)year_config(2014), std::invalid_argument);
  EXPECT_THROW((void)year_config(2025), std::invalid_argument);
  EXPECT_THROW((void)year_config(2020, 0.0), std::invalid_argument);
}

TEST(Ecosystem, ScaleReducesVolume) {
  const auto full = year_config(2020, 1.0);
  const auto half = year_config(2020, 2.0);
  EXPECT_GT(full.noise_sources, half.noise_sources);

  std::uint64_t full_campaigns = 0;
  std::uint64_t half_campaigns = 0;
  for (const auto& group : full.groups) {
    if (group.recur_days == 0 && !group.sharded) full_campaigns += group.campaigns;
  }
  for (const auto& group : half.groups) {
    if (group.recur_days == 0 && !group.sharded) half_campaigns += group.campaigns;
  }
  EXPECT_GT(full_campaigns, half_campaigns);
}

TEST(Ecosystem, MiraiAbsentBefore2017) {
  for (const int year : {2015, 2016}) {
    for (const auto& group : year_config(year).groups) {
      EXPECT_NE(group.tool, WireTool::kMirai) << year << " " << group.name;
    }
  }
  bool mirai_2017 = false;
  for (const auto& group : year_config(2017).groups) {
    if (group.tool == WireTool::kMirai) mirai_2017 = true;
  }
  EXPECT_TRUE(mirai_2017);
}

TEST(Ecosystem, InstitutionalRosterGrows) {
  const auto count_inst = [](const YearConfig& config) {
    std::size_t n = 0;
    for (const auto& group : config.groups) {
      if (!group.organization.empty()) ++n;
    }
    return n;
  };
  const auto inst_2015 = count_inst(year_config(2015));
  const auto inst_2020 = count_inst(year_config(2020));
  const auto inst_2024 = count_inst(year_config(2024));
  EXPECT_LT(inst_2015, inst_2020);
  EXPECT_LT(inst_2020, inst_2024);
  EXPECT_EQ(inst_2024, 40u);
}

TEST(Ecosystem, StealthInstitutionsOnlyInLateYears) {
  const auto has_stealth = [](const YearConfig& config) {
    for (const auto& group : config.groups) {
      if (group.organization.empty()) continue;
      if (group.tool == WireTool::kZmapStealth ||
          group.tool == WireTool::kMasscanStealth) {
        return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(has_stealth(year_config(2020)));
  EXPECT_TRUE(has_stealth(year_config(2023)));
  EXPECT_TRUE(has_stealth(year_config(2024)));
}

TEST(Ecosystem, ShardingAppearsFrom2020) {
  const auto shard_count = [](const YearConfig& config) {
    std::size_t n = 0;
    for (const auto& group : config.groups) {
      if (group.sharded) ++n;
    }
    return n;
  };
  EXPECT_EQ(shard_count(year_config(2015)), 0u);
  EXPECT_GE(shard_count(year_config(2020)), 1u);
  EXPECT_GE(shard_count(year_config(2024)), 3u);
}

TEST(Ecosystem, FullRangeScannersOnlyLate) {
  const auto full_range_groups = [](const YearConfig& config) {
    std::size_t n = 0;
    for (const auto& group : config.groups) {
      if (group.ports.choice == PortChoice::kFullRange ||
          (group.ports.choice == PortChoice::kSubset &&
           group.ports.subset_size == 65536)) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(full_range_groups(year_config(2015)), 0u);
  EXPECT_GE(full_range_groups(year_config(2024)), 4u);
}

TEST(Ecosystem, DisclosureStudyHasTenEvents) {
  const auto config = disclosure_study_config();
  EXPECT_EQ(config.events.size(), 10u);
  std::uint16_t previous_port = 0;
  double previous_day = 0.0;
  for (const auto& event : config.events) {
    EXPECT_NE(event.port, previous_port);
    EXPECT_GT(event.day, previous_day);
    previous_port = event.port;
    previous_day = event.day;
  }
}

TEST(Ecosystem, MultiPortNoiseShareGrows) {
  // Fig. 3's driver: more sources probe several ports as years pass.
  EXPECT_LT(year_config(2015).noise_multiport_fraction,
            year_config(2020).noise_multiport_fraction);
  EXPECT_LE(year_config(2020).noise_multiport_fraction,
            year_config(2022).noise_multiport_fraction);
  EXPECT_NEAR(year_config(2015).noise_multiport_fraction, 0.17, 1e-9);
}

TEST(Ecosystem, InstitutionalCensusBiasesPopularPorts) {
  // Port-census scanners revisit popular service ports (Fig. 5: 443 is
  // institutional-heavy); academics use a fixed HTTPS-first list.
  bool subset_with_bias = false;
  bool academic_list_with_443 = false;
  for (const auto& group : year_config(2022).groups) {
    if (group.organization.empty()) continue;
    if (group.ports.choice == PortChoice::kSubset && group.ports.popular_bias > 0.0) {
      subset_with_bias = true;
      EXPECT_FALSE(group.ports.popular.empty());
    }
    if (group.ports.choice == PortChoice::kList && !group.ports.list.empty() &&
        group.ports.list.front() == 443) {
      academic_list_with_443 = true;
    }
  }
  EXPECT_TRUE(subset_with_bias);
  EXPECT_TRUE(academic_list_with_443);
}

TEST(Ecosystem, SpeedOrderingMatchesPaper) {
  // §6.3: Mirai slowest, NMap above Masscan's bulk median, ZMap fastest.
  double mirai = 0;
  double nmap = 0;
  double masscan = 0;
  double zmap = 0;
  for (const auto& group : year_config(2020).groups) {
    if (group.name == "mirai-botnet") mirai = group.pps_median;
    if (group.name == "nmap-classics") nmap = group.pps_median;
    if (group.name == "masscan-host") masscan = group.pps_median;
    if (group.name == "zmap-us") zmap = group.pps_median;
  }
  ASSERT_GT(mirai, 0);
  ASSERT_GT(masscan, 0);
  EXPECT_LT(mirai, masscan);
  EXPECT_LT(masscan, nmap);
  EXPECT_LT(nmap, zmap);
}

TEST(Ecosystem, PaperRowsAvailableForAllYears) {
  for (int year = kFirstYear; year <= kLastYear; ++year) {
    const auto& row = paper_row(year);
    EXPECT_EQ(row.year, year);
    EXPECT_GT(row.packets_per_day, 0.0);
    EXPECT_GT(row.scans_per_month, 0.0);
  }
  EXPECT_THROW((void)paper_row(2014), std::invalid_argument);
}

TEST(Ecosystem, PaperRowsEncodeTheHeadlineTrends) {
  // 30-fold traffic growth, ZMap's 2024 surge, Mirai's 2017 dominance.
  EXPECT_NEAR(paper_row(2024).packets_per_day / paper_row(2015).packets_per_day, 31.4,
              1.0);
  EXPECT_GT(paper_row(2024).zmap_scan_share, 0.5);
  EXPECT_GT(paper_row(2017).mirai_scan_share, 0.4);
  EXPECT_GT(paper_row(2015).nmap_scan_share, 0.3);
}

}  // namespace
}  // namespace synscan::simgen
