#include "core/analysis_session.h"

#include <algorithm>

#include "obs/timer.h"
#include "telescope/probe_batch.h"

namespace synscan::core {

AnalyzedCapture analyze_capture(const std::filesystem::path& path,
                                const telescope::Telescope& telescope,
                                const enrich::InternetRegistry& registry,
                                std::size_t workers, const IngestOptions& options) {
  AnalyzedCapture analysis(registry);
  Pipeline pipeline(telescope, std::max<std::size_t>(workers, 1));
  {
    obs::ScopedTimer ingest("analyze.ingest");
    const auto ingested = ingest_capture(
        path, telescope, options,
        [&](const telescope::ProbeBatch& batch) { pipeline.feed_probes(batch); });
    pipeline.absorb_sensor_counters(ingested.sensor);
    analysis.frames = ingested.frames;
    analysis.final_status = ingested.status;
    analysis.from_cache = ingested.from_cache;
  }
  const obs::ScopedTimer finish("analyze.finish");
  analysis.result = pipeline.finish();
  return analysis;
}

}  // namespace synscan::core
