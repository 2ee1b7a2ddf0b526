// Per-source tool classification by evidence accumulation.
//
// Single-packet fingerprints are counted per probe; pairwise fingerprints
// (NMap, Unicorn) are evaluated between consecutive probes of the same
// source, which keeps the state O(1) per source — essential when tracking
// millions of concurrent sources. A verdict requires a minimum number of
// matches and a minimum matched fraction, so that chance collisions
// (e.g. the 2^-16 probability of a random NMap pair match) cannot
// misattribute a campaign.
#pragma once

#include <cstdint>

#include "fingerprint/matchers.h"
#include "fingerprint/tool.h"

namespace synscan::fingerprint {

/// Tunable decision thresholds.
struct ClassifierConfig {
  /// Minimum matching probes (single-packet) or pairs (pairwise).
  std::uint32_t min_matches = 2;
  /// Minimum fraction of observed probes/pairs that must match.
  double min_fraction = 0.5;
};

/// Fingerprint evidence for one traffic source: the match counters plus
/// the first and the previous probe. It is a plain value — the tracker
/// keeps one per flow, a boundary segment carries it, the rollup store
/// persists its fields, and the merger splices two with `append` — and it
/// holds no thresholds: those are passed to `verdict`.
struct ToolEvidence {
  std::uint64_t probes = 0;  ///< probes observed so far
  std::uint64_t zmap_hits = 0;
  std::uint64_t masscan_hits = 0;
  std::uint64_t mirai_hits = 0;
  std::uint64_t nmap_pair_hits = 0;
  std::uint64_t unicorn_pair_hits = 0;
  std::uint64_t pairs = 0;
  bool have_previous = false;
  telescope::ScanProbe first{};     ///< valid when probes > 0
  telescope::ScanProbe previous{};  ///< valid when have_previous

  /// Feeds the next probe of this source, in arrival order.
  void observe(const telescope::ScanProbe& probe) noexcept;

  /// Appends evidence accumulated over a *later* contiguous probe run of
  /// the same source: counters add, and the pairwise fingerprints are
  /// evaluated once across the seam (this evidence's last probe against
  /// `later`'s first), so the result is bit-identical to having observed
  /// the concatenated probe sequence in one pass. Associative over
  /// consecutive runs — the shard-rollup merge relies on both properties.
  void append(const ToolEvidence& later) noexcept;

  /// The best verdict under `config`. Single-packet fingerprints take
  /// priority over pairwise ones (a Mirai probe stream can coincidentally
  /// satisfy pairwise relations when ports repeat); ties break in the
  /// order ZMap, Masscan, Mirai, NMap, Unicorn.
  [[nodiscard]] Tool verdict(const ClassifierConfig& config = {}) const noexcept;

  /// Matched-probe count for a single-packet tool, or matched-pair count
  /// for a pairwise tool.
  [[nodiscard]] std::uint64_t matches(Tool tool) const noexcept;
};

/// Share-of-total accounting per tool, used for the Table 1 "Tools by
/// scans" block and the per-port tool mixes of Fig. 4.
class ToolTally {
 public:
  void add(Tool tool, std::uint64_t weight = 1) noexcept {
    counts_[tool_index(tool)] += weight;
    total_ += weight;
  }

  [[nodiscard]] std::uint64_t count(Tool tool) const noexcept {
    return counts_[tool_index(tool)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Fraction of the total attributed to `tool`; 0 when empty.
  [[nodiscard]] double share(Tool tool) const noexcept {
    return total_ == 0 ? 0.0
                       : static_cast<double>(count(tool)) / static_cast<double>(total_);
  }

  /// Combined share of the fingerprintable tools (everything but
  /// kUnknown) — the paper's "known tools" headline numbers.
  [[nodiscard]] double known_share() const noexcept {
    return total_ == 0 ? 0.0 : 1.0 - share(Tool::kUnknown);
  }

 private:
  std::array<std::uint64_t, kToolCount> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace synscan::fingerprint
