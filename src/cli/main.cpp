// synscan — command-line front-end to the telescope analytics toolkit.
//
//   synscan simulate --year=2020 --out=window.pcap [--scale=32] [--seed=7]
//       Generate a calibrated measurement window as a pcap capture.
//
//   synscan analyze <capture.pcap> [--top=10] [--workers=N] [--metrics[=file]]
//       Full analysis: sensor statistics, campaign census, tool shares,
//       top ports, scanner types, country mix. --metrics adds an
//       observability run report (docs/OBSERVABILITY.md).
//
//   synscan fingerprint <capture.pcap>
//       Per-source tool verdicts with evidence counts.
//
//   synscan info <capture.pcap>
//       Capture metadata and frame classification counts.
//
//   synscan serve --socket=/run/synscand.sock [--capture=window.pcap]
//       Long-running analysis daemon (synscand): loads captures once,
//       keeps them resident, answers framed queries (docs/SYNSCAND.md).
//
//   synscan query --socket=/run/synscand.sock QUERY campaigns tool=zmap
//       Thin client: send one daemon command, print the response body.
//
//   synscan cache stat|verify|build <path> [--capture=...] [--out=...]
//       Probe-cache (.spc) maintenance: header dump, full offline
//       validation, or prebuilding a cache ahead of analysis runs.
//
//   synscan rollup build|stat|query <captures...> [--workers=N] [--json=file]
//       Sharded multi-capture analysis over the .spr rollup store:
//       analyze each capture once, answer from merged rollups after.
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "cli/commands.h"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: synscan <command> [options]\n\n"
        "commands:\n"
        "  simulate     generate a calibrated telescope capture (pcap)\n"
        "  analyze      campaign/tool/port/type analysis of a capture\n"
        "  fingerprint  per-source scanning-tool attribution\n"
        "  info         capture metadata and traffic classification\n"
        "  serve        run the resident analysis daemon (synscand)\n"
        "  query        send one command to a running synscand\n"
        "  cache        probe-cache (.spc) maintenance: stat | verify | build\n"
        "  rollup       sharded multi-capture analysis: build | stat | query\n"
        "\ncommon options:\n"
        "  simulate: --year=<2015..2024> --out=<file> [--scale=<x>] [--seed=<n>]\n"
        "            [--days=<n>]\n"
        "  analyze:  <capture.pcap> [--top=<n>] [--json=<file>] [--workers=<n>]\n"
        "            [--metrics[=<file>]]   run report: ASCII table, or JSON\n"
        "            with per-stage timings (docs/OBSERVABILITY.md)\n"
        "  serve:    --socket=<path> and/or --port=<n> [--capture=<pcap>]\n"
        "            [--workers=<n>] [--io-workers=<n>] [--idle-timeout-ms=<n>]\n"
        "            [--poll] [--metrics]   protocol spec: docs/SYNSCAND.md\n"
        "  query:    --socket=<path> | --port=<n> [--host=<ip>] <command...>\n"
        "            e.g. PING | STATUS | LOAD <pcap> | ROLLUP <pcap...> |\n"
        "            QUERY analyze | SHUTDOWN\n"
        "  cache:    stat <file.spc> | verify <file.spc> [--capture=<pcap>] |\n"
        "            build <capture.pcap> [--out=<file.spc>]\n"
        "            [--force] [--scan-chunks=<n>]\n"
        "  rollup:   build|query <captures...> [--workers=<n>] [--json=<file>]\n"
        "            [--no-rollup-store] | stat <file.spr>   (docs/ARCHITECTURE.md\n"
        "            \"Rollup store\": merged reports match analyze --json bytes)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string_view command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "simulate") return synscan::cli::run_simulate(args);
    if (command == "analyze") return synscan::cli::run_analyze(args);
    if (command == "fingerprint") return synscan::cli::run_fingerprint(args);
    if (command == "info") return synscan::cli::run_info(args);
    if (command == "serve") return synscan::cli::run_serve(args);
    if (command == "query") return synscan::cli::run_query(args);
    if (command == "cache") return synscan::cli::run_cache(args);
    if (command == "rollup") return synscan::cli::run_rollup(args);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage(std::cout);
      return 0;
    }
  } catch (const std::exception& error) {
    std::cerr << "synscan " << command << ": " << error.what() << "\n";
    return 1;
  }
  std::cerr << "synscan: unknown command '" << command << "'\n";
  print_usage(std::cerr);
  return 2;
}
