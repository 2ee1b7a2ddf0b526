// Persistent rollup store (`.spr`): one capture's analysis, on disk.
//
// The decade-scale workflow analyzes each capture shard once and
// answers every later question by merging rollups (core/rollup.h). The
// expensive half of that bargain only pays off if the per-shard
// analysis itself survives between runs — so a `CaptureRollup` persists
// as a compact little-endian columnar file next to the capture, sibling
// to its `.spc` probe cache and written and read by the same code
// (core/probe_cache.h, "The sidecar discipline"): identity check against
// the source capture (byte size + mtime), an FNV-1a checksum over the
// payload, one commit through a temp file unique to the writer and an
// atomic rename, and one mapped read — the payload decodes straight off
// the mapping, with no copy — validated in full before a single byte is
// trusted. A path that is not a regular file is a miss without being
// read. Any mismatch — torn file, stale capture, different analysis
// configuration — invalidates the rollup and the caller falls back to
// re-analyzing the shard.
//
// Layout (all integers little-endian):
//   header (64 bytes):
//     u32 magic "spr1"        u32 version (=3)
//     u64 source_size         u64 source_mtime_ns
//     u64 analysis_fingerprint (see `analysis_fingerprint`)
//     u64 campaign_count      u64 segment_count
//     u64 payload_size        u64 checksum (FNV-1a over the payload)
//   payload: meta (frames, terminal status, a reserved byte, then the
//     shard's first and last probe times, which the merger's time-order
//     check and the boundary horizons rest on), sensor counters, tracker
//     counters, campaigns, boundary segments (only the flows within
//     `expiry` of the shard's first or last probe, each with its
//     destinations, its port map and every field of its `ToolEvidence`)
//     and one tally section, the `PortTally`:
//       u64 source_count, then per source in ascending order:
//       u32 source, u32 row_count (>= 1), then row_count rows of
//       u16 port, u64 packets (> 0) in ascending port order.
//     Every map is emitted in sorted key order so the bytes are a pure
//     function of the analysis result, and the reader checks that order
//     (strictly ascending tally sources, port rows and segment
//     destinations, every row with packets). No section names a scanner
//     type or country, so a rollup is valid under any registry.
//     The reserved byte is written as 0 and ignored on load, so a
//     shard's bytes do not depend on whether its probes came from a
//     `.spc`; a loaded rollup reports `from_cache` true, since its result
//     came from the store. The next version drops the byte.
//
// Version 1 (three tally sections) and version 2 (no first probe time;
// a head segment for every source) files load as misses and are
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

/// Parses just the header. nullopt when the path is not a regular file,
/// or the file is too short or not an spr file.
[[nodiscard]] std::optional<RollupFileInfo> rollup_stat(const std::filesystem::path& path);

/// Writes `rollup` to `path` through a `SidecarWriter` (a temp file of
/// its own, then a rename). Returns false on any I/O failure (after
/// removing the temp file) — rollup persistence is best-effort and must
/// never fail the run.
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
