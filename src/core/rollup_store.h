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
//     u32 magic "spr1"        u32 version (=5)
//     u64 source_size         u64 source_mtime_ns
//     u64 analysis_fingerprint (see `analysis_fingerprint`)
//     u64 campaign_count      u64 segment_count
//     u64 payload_size        u64 checksum (FNV-1a over the payload)
//   payload: meta (frames, terminal status, then the shard's first and
//     last probe times, which the merger's time-order check and the
//     boundary horizons rest on), sensor counters, the five tracker
//     counters that are functions of the probes (probes, campaigns,
//     sub-threshold flows and packets, expired flows; the sweep and
//     allocation counters are scheduling, and a loaded shard has them
//     0), campaigns, boundary segments (only the flows within `expiry` of
//     the shard's first or last probe, each with its destinations, its
//     port map and its `ToolEvidence`: the counters and the first and
//     previous probe) and one tally section, the residual `PortTally` of
//     the flows that closed inside the shard below the campaign
//     threshold:
//       u64 source_count, then per source in ascending order:
//       u32 source, u32 row_count (>= 1), then row_count rows of
//       u16 port, u64 packets (> 0) in ascending port order.
//     Every packet count is stored once: the shard's full tally is the
//     residual plus the campaigns' and segments' maps, composed only
//     where a view reads it.
//     Every map is emitted in sorted key order so the bytes are a pure
//     function of the shard's probes, the same at any tracker count and
//     sweep schedule, and the reader checks that order
//     (strictly ascending tally sources, port rows and segment
//     destinations, every row with packets). It also checks the packet
//     identities the writer guarantees, so a tally never disagrees with
//     the counters beside it: each campaign's and segment's rows sum to
//     its packets, each segment's evidence counts its packets as probes,
//     the residual sums to the tracker's sub-threshold packets, and the
//     campaigns', segments' and sub-threshold packets sum to the
//     tracker's probes. No section names a scanner type or country, so
//     a rollup is valid under any registry. Nothing in the payload says
//     whether the shard's probes came from a `.spc`, so those bytes
//     match a cold build's; a loaded rollup reports `from_cache` true,
//     since its result came from the store.
//
// Version 1 (three tally sections), version 2 (no first probe time; a
// head segment for every source), version 3 (the full tally, a
// reserved byte and a `have_previous` byte per segment) and version 4
// (eleven tracker counters) files load as misses and are rewritten: the
// store is a disposable cache and keeps no old readers.
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
/// harness still passes it, so it stays until ROADMAP item 9.
[[nodiscard]] std::optional<CaptureRollup> load_rollup(
    const std::filesystem::path& path, const enrich::InternetRegistry& registry,
    const CacheIdentity& expected, std::uint64_t fingerprint);

}  // namespace synscan::core
