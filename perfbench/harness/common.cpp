#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "report/json.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

const synscan::telescope::Telescope& bench_telescope() {
  static const auto telescope = synscan::telescope::Telescope::paper_default();
  return telescope;
}

const synscan::enrich::InternetRegistry& bench_registry() {
  return synscan::enrich::InternetRegistry::synthetic_default();
}

std::size_t default_workers() {
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw == 0 ? 2 : hw - 1, 2, 8);
}

std::string emit_report(const synscan::core::PipelineResult& result) {
  std::string out;
  synscan::report::append_counters_json(out, result);
  out.push_back('\n');
  synscan::report::append_campaigns_jsonl(out, result.campaigns);
  return out;
}

double Samples::min() const {
  return values_.empty() ? 0 : *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  return values_.empty() ? 0 : *std::max_element(values_.begin(), values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  auto sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string Samples::json(double scale) const {
  std::ostringstream out;
  out << "{\"n\":" << values_.size() << ",\"min\":" << json_number(min() * scale)
      << ",\"q1\":" << json_number(quantile(0.25) * scale)
      << ",\"median\":" << json_number(median() * scale)
      << ",\"q3\":" << json_number(quantile(0.75) * scale)
      << ",\"max\":" << json_number(max() * scale) << ",\"series\":[";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", values_[i] * scale);
    out << (i == 0 ? "" : ",") << buf;
  }
  out << "]}";
  return out.str();
}

MemProbe::MemProbe() {
  // Sattolo's algorithm: one cycle through every slot, so the walk
  // visits the whole 16 MiB before repeating. Fixed seed: the probe is
  // a reference, identical in every run.
  constexpr std::size_t kSlots = (16u << 20) / sizeof(std::uint32_t);
  next_.resize(kSlots);
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const auto j = static_cast<std::size_t>(state % i);
    std::swap(next_[i], next_[j]);
  }
}

double MemProbe::run() {
  constexpr std::size_t kSteps = 1u << 20;
  const auto start = Clock::now();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kSteps; ++i) at = next_[at];
  const double elapsed = seconds_since(start);
  sink_ += at;  // keeps the walk observable
  samples_.add(elapsed);
  return elapsed;
}

bool Checks::record(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

void CountLedger::note(std::string_view name, std::uint64_t value, Checks& checks) {
  const auto [it, inserted] = counts_.emplace(std::string(name), value);
  if (!inserted) {
    checks.record(it->second == value,
                  std::string(name) + " repeats (" + std::to_string(it->second) +
                      " vs " + std::to_string(value) + ")");
  }
}

std::string CountLedger::json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : counts_) {
    out << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  out << "}";
  return out.str();
}

void CountLedger::settle(const fs::path& path, Checks& checks) const {
  if (path.empty()) return;
  const auto mine = json();
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::string stored((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    checks.record(stored == mine, "deterministic counts match the ledger " +
                                      path.string() + " (" + stored + " vs " + mine + ")");
    return;
  }
  fs::create_directories(path.parent_path());
  std::ofstream(path, std::ios::binary | std::ios::trunc) << mine;
}

Budget::Budget(double seconds, std::size_t min_rotations)
    : start_(Clock::now()), last_(start_), seconds_(seconds), min_rotations_(min_rotations) {}

bool Budget::next() {
  const auto now = Clock::now();
  if (rotations_ > 0) {
    longest_ = std::max(longest_, std::chrono::duration<double>(now - last_).count());
  }
  last_ = now;
  const double elapsed = std::chrono::duration<double>(now - start_).count();
  const bool go = rotations_ < min_rotations_ || elapsed + longest_ <= seconds_;
  if (go) ++rotations_;
  return go;
}

void remove_file(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

std::uint64_t file_bytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_outcome(const Outcome& outcome, const MemProbe& probe) {
  std::ostringstream diag;
  diag << "{\"diagnostics\":{\"host.mem_probe_s\":" << probe.samples().json()
       << ",\"counts\":" << outcome.counts.json();
  for (const auto& [key, value] : outcome.diagnostics) {
    diag << ",\"" << key << "\":" << value;
  }
  diag << "}}";

  std::ostringstream result;
  result << "{\"correct\":" << (outcome.checks.failed() == 0 ? "true" : "false")
         << ",\"attempted\":" << outcome.checks.attempted()
         << ",\"failed\":" << outcome.checks.failed() << ",\"metrics\":{";
  bool first = true;
  for (const auto& metric : outcome.metrics) {
    result << (first ? "" : ",") << "\"" << metric.name
           << "\":{\"value\":" << json_number(metric.value) << ",\"unit\":\""
           << metric.unit << "\"}";
    first = false;
  }
  result << "}}";

  std::cout << diag.str() << "\n" << result.str() << std::endl;
}

}  // namespace perfbench
