// Persistent rollup store (`.spr`): one capture's analysis, on disk.
//
// The decade-scale workflow analyzes each capture shard once and
// answers every later question by merging rollups (core/rollup.h). The
// expensive half of that bargain only pays off if the per-shard
// analysis itself survives between runs — so a `CaptureRollup` persists
// as a compact little-endian columnar file next to the capture, sibling
// to its `.spc` probe cache and under the same discipline: identity
// check against the source capture (byte size + mtime), an FNV-1a
// checksum over the payload, tmp-file + rename commits, and full
// validation before a single byte is trusted. Any mismatch — torn file,
// stale capture, different analysis configuration — invalidates the
// rollup and the caller falls back to re-analyzing the shard.
//
// Layout (all integers little-endian):
//   header (64 bytes):
//     u32 magic "spr1"        u32 version (=2)
//     u64 source_size         u64 source_mtime_ns
//     u64 analysis_fingerprint (see `analysis_fingerprint`)
//     u64 campaign_count      u64 segment_count
//     u64 payload_size        u64 checksum (FNV-1a over the payload)
//   payload: meta, sensor counters, tracker counters, campaigns,
//     boundary segments (with full fingerprint accumulator state) and
//     one tally section, the `PortTally`:
//       u64 source_count, then per source in ascending order:
//       u32 source, u32 row_count (>= 1), then row_count rows of
//       u16 port, u64 packets (> 0) in ascending port order.
//     Every map is emitted in sorted key order so the bytes are a pure
//     function of the analysis result. No section names a scanner type
//     or country, so a rollup is valid under any registry.
//
// Version 1 files (three tally sections) load as misses and are
// rewritten: the store is a disposable cache and keeps no old readers.
//
// The analysis fingerprint hashes every configuration knob that can
// change the result — tracker thresholds, expiry, classifier thresholds
// and the telescope size — but deliberately not `sweep_interval`:
// results are sweep-schedule-independent (that invariant is what makes
// rollups mergeable at all), so retuning the sweep cadence must not
// invalidate a decade of cached shards.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>

#include "core/probe_cache.h"
#include "core/rollup.h"

namespace synscan::core {

/// Hash of every analysis parameter that affects a rollup's contents.
/// A stored rollup is only valid for the exact configuration it was
/// computed under; `monitored_addresses` is the telescope size feeding
/// the extrapolation model.
[[nodiscard]] std::uint64_t analysis_fingerprint(const TrackerConfig& config,
                                                 std::uint64_t monitored_addresses);

/// Default rollup location: `<capture>.spr`, sibling to the `.spc`.
[[nodiscard]] std::filesystem::path rollup_path_for(const std::filesystem::path& capture);

/// Header fields of a rollup file, as stored (no payload validation).
/// Powers `synscan rollup stat`.
struct RollupFileInfo {
  std::uint32_t version = 0;
  std::uint64_t source_size = 0;
  std::uint64_t source_mtime_ns = 0;
  std::uint64_t analysis_fingerprint = 0;
  std::uint64_t campaigns = 0;
  std::uint64_t segments = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  std::uint64_t file_size = 0;
};

/// Parses just the header. nullopt when the file is missing, too short,
/// or not an spr file.
[[nodiscard]] std::optional<RollupFileInfo> rollup_stat(const std::filesystem::path& path);

/// Writes `rollup` to `path` via a sibling ".tmp" and rename. Returns
/// false on any I/O failure (after cleaning up the temp file) — rollup
/// persistence is best-effort and must never fail the run.
[[nodiscard]] bool save_rollup(const std::filesystem::path& path,
                               const CaptureRollup& rollup,
                               const CacheIdentity& identity,
                               std::uint64_t fingerprint);

/// Loads and fully validates a stored rollup: magic, version, source
/// identity, analysis fingerprint, checksum and payload framing.
/// nullopt on any defect — the caller re-analyzes and rewrites. The
/// registry is not read (a rollup does not depend on it); the benchmark
/// harness still passes it, so it stays until ROADMAP item 8.
[[nodiscard]] std::optional<CaptureRollup> load_rollup(
    const std::filesystem::path& path, const enrich::InternetRegistry& registry,
    const CacheIdentity& expected, std::uint64_t fingerprint);

}  // namespace synscan::core
