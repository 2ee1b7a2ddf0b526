#include "fingerprint/classifier.h"

namespace synscan::fingerprint {

void ToolEvidence::observe(const telescope::ScanProbe& probe) noexcept {
  if (probes == 0) first = probe;
  ++probes;
  if (matches_zmap(probe)) ++zmap_hits;
  if (matches_masscan(probe)) ++masscan_hits;
  if (matches_mirai(probe)) ++mirai_hits;

  if (have_previous) {
    ++pairs;
    if (matches_nmap_pair(previous.sequence, probe.sequence)) ++nmap_pair_hits;
    if (matches_unicorn_pair(previous, probe)) ++unicorn_pair_hits;
  }
  previous = probe;
  have_previous = true;
}

void ToolEvidence::append(const ToolEvidence& later) noexcept {
  if (later.probes == 0) return;
  if (probes == 0) first = later.first;
  // The pair spanning the seam: this run's last probe against the later
  // run's first. Everything else was already counted on either side.
  if (have_previous) {
    ++pairs;
    if (matches_nmap_pair(previous.sequence, later.first.sequence)) ++nmap_pair_hits;
    if (matches_unicorn_pair(previous, later.first)) ++unicorn_pair_hits;
  }
  probes += later.probes;
  zmap_hits += later.zmap_hits;
  masscan_hits += later.masscan_hits;
  mirai_hits += later.mirai_hits;
  nmap_pair_hits += later.nmap_pair_hits;
  unicorn_pair_hits += later.unicorn_pair_hits;
  pairs += later.pairs;
  previous = later.previous;
  have_previous = later.have_previous;
}

std::uint64_t ToolEvidence::matches(Tool tool) const noexcept {
  switch (tool) {
    case Tool::kZmap:
      return zmap_hits;
    case Tool::kMasscan:
      return masscan_hits;
    case Tool::kMirai:
      return mirai_hits;
    case Tool::kNmap:
      return nmap_pair_hits;
    case Tool::kUnicorn:
      return unicorn_pair_hits;
    case Tool::kUnknown:
      return 0;
  }
  return 0;
}

Tool ToolEvidence::verdict(const ClassifierConfig& config) const noexcept {
  const auto qualifies_single = [&](std::uint64_t hits) {
    return probes > 0 && hits >= config.min_matches &&
           static_cast<double>(hits) >= config.min_fraction * static_cast<double>(probes);
  };
  const auto qualifies_pair = [&](std::uint64_t hits) {
    return pairs > 0 && hits >= config.min_matches &&
           static_cast<double>(hits) >= config.min_fraction * static_cast<double>(pairs);
  };

  // Single-packet fingerprints first: they are per-probe exact marks and
  // immune to the coincidences pairwise relations can produce.
  if (qualifies_single(zmap_hits)) return Tool::kZmap;
  if (qualifies_single(masscan_hits)) return Tool::kMasscan;
  if (qualifies_single(mirai_hits)) return Tool::kMirai;
  if (qualifies_pair(nmap_pair_hits)) return Tool::kNmap;
  if (qualifies_pair(unicorn_pair_hits)) return Tool::kUnicorn;
  return Tool::kUnknown;
}

}  // namespace synscan::fingerprint
