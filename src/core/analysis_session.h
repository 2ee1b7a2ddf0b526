// A full capture analysis as one resident, const-queryable value.
//
// `analyze_capture` is the one shared definition of "run the paper's
// analysis over a capture": batched ingest (mmap + `.spc` cache) feeding
// the campaign pipeline. The result keeps the port tally as its two
// disjoint parts, the sub-threshold residual and the campaigns' maps; a
// reader composes it once with `result.port_tally()` and derives the
// scanner-type and country views (`TypeView`, `GeoView`) from it. The CLI
// `analyze` command and the `synscand` daemon both call it; the daemon
// keeps the returned `AnalyzedCapture` resident behind a shared_ptr and
// serves concurrent queries from it, so every query entry point takes
// `const&` — nothing here mutates after the analysis finishes.
#pragma once

#include <cstdint>
#include <filesystem>

#include "core/analysis_geo.h"
#include "core/analysis_types.h"
#include "core/ingest.h"
#include "core/pipeline.h"
#include "enrich/registry.h"
#include "pcap/pcap.h"
#include "telescope/telescope.h"

namespace synscan::core {

/// Everything one analysis pass over a capture produces. Immutable once
/// returned: queries (reports, JSON emission) only ever read it, which
/// is what makes concurrent daemon queries against a shared instance
/// safe without locks.
struct AnalyzedCapture {
  explicit AnalyzedCapture(const enrich::InternetRegistry& internet) : registry(&internet) {}

  PipelineResult result;
  /// The registry the analysis ran with; the views of
  /// `result.port_tally()` attribute through it.
  const enrich::InternetRegistry* registry;
  std::uint64_t frames = 0;
  pcap::ReadStatus final_status = pcap::ReadStatus::kEndOfFile;
  bool from_cache = false;  ///< probes came from a validated `.spc` cache
};

/// Replays `path` through the pipeline, attaching no observer.
/// `workers` is the pipeline's tracker count (0 counts as 1); the
/// report is the same at any worker count. The telescope and registry
/// must outlive the returned value.
[[nodiscard]] AnalyzedCapture analyze_capture(const std::filesystem::path& path,
                                              const telescope::Telescope& telescope,
                                              const enrich::InternetRegistry& registry,
                                              std::size_t workers,
                                              const IngestOptions& options);

}  // namespace synscan::core
