// §4.2/§5.4: origin-country shifts and country-port targeting bias.
#include <iostream>

#include "bench_common.h"
#include "core/analysis_geo.h"
#include "core/analysis_tools.h"
#include "report/table.h"

int main(int argc, char** argv) {
  using namespace synscan;
  const auto options = bench::parse_options(argc, argv);
  bench::print_banner("§4.2/§5.4 — origin countries and port bias", "§4.2, §5.4",
                      options);

  // Country mix over the years.
  report::Table mix({"year", "#1", "#2", "#3", "#4", "#5"});
  for (const int year : {2015, 2016, 2018, 2020, 2022, 2024}) {
    if (options.year && year != *options.year) continue;
    auto config = simgen::year_config(year, options.scale);
    if (options.seed) config.seed = *options.seed;
    core::GeoTally geo(bench::shared_registry());
    core::Pipeline pipeline(bench::shared_telescope());
    pipeline.add_observer(geo);
    bench::generate_into(pipeline, config);
    const auto result = pipeline.finish();

    std::vector<std::string> row{std::to_string(year)};
    for (const auto& share : geo.top_countries(5)) {
      row.push_back(share.country.to_string() + " " + report::percent(share.share));
    }
    mix.add_row(std::move(row));

    if (year == 2022) {
      report::Table normalized({"country", "packets/1k addresses", "raw share"});
      for (const auto& entry :
           geo.normalized_intensity(bench::shared_registry(), 6)) {
        normalized.add_row({entry.country.to_string(),
                            report::fixed(entry.packets_per_k_addresses, 1),
                            report::percent(geo.country_share(entry.country))});
      }
      std::cout << "\n-- packets normalized by allocated address space, 2022 "
                   "(paper: the Netherlands is the odd one out) --\n"
                << normalized;
    }

    if (year == 2022) {
      // §5.4's port-domination census for the 2022 window.
      const auto dominated = geo.dominated_ports(0.8, 20);
      report::Table dom({"country", "ports dominated >80%", "(paper, full scale)"});
      const std::pair<const char*, const char*> expectations[] = {
          {"CN", "14,444"}, {"US", "666"}, {"BR", "221"}, {"TW", "59"}, {"IR", "57"}};
      for (const auto& [code, paper] : expectations) {
        const auto it = dominated.find(enrich::CountryCode(code));
        dom.add_row({code, std::to_string(it == dominated.end() ? 0 : it->second),
                     paper});
      }
      std::cout << "\n-- 2022 country-dominated ports (>80% of a port's traffic) --\n"
                << dom;

      report::Table bias({"port", "top origin", "share", "paper claim"});
      const auto describe = [&](std::uint16_t port, const char* claim) {
        const auto top = geo.port_country_mix(port, 1);
        bias.add_row({std::to_string(port),
                      top.empty() ? "-" : top[0].country.to_string(),
                      top.empty() ? "-" : report::percent(top[0].share), claim});
      };
      describe(443, "US-based (institutional research)");
      describe(3389, "essentially from China");
      describe(3306, "essentially from China");
      describe(8545, "enterprise space (FPT, VN)");
      std::cout << "\n-- per-port origin bias, 2022 --\n" << bias;

      // §6.5: tool-country bias.
      const auto zmap_mix = core::tool_country_mix(result.campaigns,
                                                   bench::shared_registry(),
                                                   fingerprint::Tool::kZmap, 3);
      std::cout << "\n-- ZMap origin countries, 2022 (paper: almost exclusively "
                   "CN + US) --\n";
      for (const auto& entry : zmap_mix) {
        std::cout << "  " << entry.country.to_string() << ": "
                  << report::percent(entry.share) << "\n";
      }
    }
    if (year == 2018) {
      core::GeoTally unused(bench::shared_registry());
      const auto masscan_mix = core::tool_country_mix(result.campaigns,
                                                      bench::shared_registry(),
                                                      fingerprint::Tool::kMasscan, 2);
      std::cout << "\n-- Masscan origin, 2018 (paper: Russia runs >80% of Masscan "
                   "scans) --\n";
      for (const auto& entry : masscan_mix) {
        std::cout << "  " << entry.country.to_string() << ": "
                  << report::percent(entry.share) << "\n";
      }
    }
  }
  std::cout << "\n-- top origin countries per year --\n" << mix;
  std::cout << "\npaper shape: China >30% early on, then broad diversification; the\n"
               "Netherlands over-represented relative to size (hosting).\n";
  return 0;
}
