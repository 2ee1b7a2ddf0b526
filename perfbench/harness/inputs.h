// Workload inputs, made by the simgen load generator from the seed
// before any clock starts. Generation runs in its own process (the
// harness `gen` command), so it is excluded from every metric including
// peak RSS.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

#include "core/shard.h"

namespace perfbench {

/// Frames kept of the generated 2024 window at shrink 1. The generator's
/// heavy-tailed campaign sizes make a full window's volume swing by
/// +-8% between seeds (4.76M-5.57M frames); the first 4.5M frames in
/// time order (about 25 of its 29 days) give every seed the same work,
/// so seed-to-seed spread is the program's and the host's, not the
/// input's.
inline constexpr std::uint64_t kWindowFrames = 4'500'000;

/// Generator scale (packet-volume divisor) of the decade's ten windows
/// at shrink 1: about 8.4M frames in 71 weekly shards, so a warm query
/// lasts about a second. Its volume varies less between seeds than one
/// window's (ten windows average), and the query cost follows segments
/// and campaigns, which vary by under 1%.
inline constexpr double kDecadeScale = 4.0;

/// The one-window capture of `window2024`.
[[nodiscard]] std::filesystem::path window_capture(const std::filesystem::path& dir);

/// The weekly shard files of `decade-rollup`, in name order.
[[nodiscard]] std::vector<std::filesystem::path> decade_shards(
    const std::filesystem::path& dir);

struct RunOptions;

/// The captures a workload analyzes, in shard-plan (capture-time)
/// order: the weekly shards for decade-rollup, the window otherwise.
[[nodiscard]] synscan::core::ShardPlan workload_plan(const RunOptions& options);

/// The `.spc` probe cache the program keeps next to a capture.
[[nodiscard]] std::filesystem::path spc_path(const std::filesystem::path& capture);

/// Writes the inputs of `workload` under `dir`.
void generate_inputs(std::string_view workload, std::uint64_t seed, double shrink,
                     const std::filesystem::path& dir);

}  // namespace perfbench
