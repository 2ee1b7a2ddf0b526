// perfbench_harness: the synscan repository benchmark.
//
//   perfbench_harness gen --workload W --seed N [--shrink S] --dir D
//   perfbench_harness run --workload W --seed N --seconds T --trace 0|1
//                         [--shrink S] --dir D [--ledger F] [--trace-out F]
//
// `gen` writes the workload's inputs; `run` measures them in a fresh
// process and prints a diagnostics line, then the result line (one JSON
// object: correct, attempted, failed, metrics). run.py drives both.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "common.h"
#include "inputs.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 0) throw std::invalid_argument("every flag takes a value");
  return flags;
}

RunOptions options_from(const std::map<std::string, std::string>& flags) {
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  RunOptions options;
  options.workload = get("workload", "");
  options.seed = std::stoull(get("seed", "1"));
  options.seconds = std::stod(get("seconds", "10"));
  options.trace = get("trace", "0") == "1";
  options.shrink = std::stod(get("shrink", "1"));
  options.dir = get("dir", ".");
  options.ledger = get("ledger", "");
  options.trace_out = get("trace-out", "");
  if (options.workload != "window2024" && options.workload != "decade-rollup") {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.shrink < 1) throw std::invalid_argument("--shrink must be >= 1");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench_harness gen|run --flag value ...");
    const std::string command = argv[1];
    const auto options = options_from(parse_flags(argc, argv));
    if (command == "gen") {
      perfbench::generate_inputs(options.workload, options.seed, options.shrink, options.dir);
      return 0;
    }
    if (command != "run") throw std::invalid_argument("unknown command '" + command + "'");

    perfbench::MemProbe probe;
    probe.run();
    perfbench::Outcome outcome;
    if (options.trace) {
      outcome = perfbench::run_tour(options, probe);
    } else if (options.workload == "window2024") {
      outcome = perfbench::run_window(options, probe);
    } else {
      outcome = perfbench::run_decade(options, probe);
    }
    outcome.counts.settle(options.ledger, outcome.checks);
    perfbench::print_outcome(outcome, probe);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
