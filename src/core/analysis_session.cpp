#include "core/analysis_session.h"

#include <algorithm>

#include "core/shard.h"

namespace synscan::core {

AnalyzedCapture analyze_capture(const std::filesystem::path& path,
                                const telescope::Telescope& telescope,
                                const enrich::InternetRegistry& registry,
                                std::size_t workers, const IngestOptions& options) {
  const std::filesystem::path captures[] = {path};
  ShardRunOptions run;
  run.workers = std::max<std::size_t>(workers, 1);  // run_shards reads 0 as "all cores"
  run.use_rollup_store = false;
  run.ingest = options;
  return run_shards(plan_shards(captures), telescope, registry, TrackerConfig{}, run)
      .analysis;
}

}  // namespace synscan::core
