#include "core/ingest.h"

#include <exception>
#include <optional>
#include <system_error>
#include <utility>

#include "core/probe_cache.h"
#include "obs/metrics.h"
#include "pcap/pcap.h"
#include "pcap/pcapng.h"

namespace synscan::core {
namespace {

/// The `ingest.*` metric cells, resolved once per run iff obs is on.
struct IngestMetrics {
  obs::Counter* batches = nullptr;
  obs::Counter* mmap_bytes = nullptr;
  obs::Counter* fallback_reads = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* cache_invalidations = nullptr;
  obs::Counter* cache_write_failures = nullptr;

  IngestMetrics() {
    if (!obs::enabled()) return;
    auto& registry = obs::MetricsRegistry::global();
    batches = &registry.counter("ingest.batches");
    mmap_bytes = &registry.counter("ingest.mmap_bytes");
    fallback_reads = &registry.counter("ingest.fallback_reads");
    cache_hits = &registry.counter("ingest.cache_hits");
    cache_misses = &registry.counter("ingest.cache_misses");
    cache_invalidations = &registry.counter("ingest.cache_invalidations");
    cache_write_failures = &registry.counter("ingest.cache_write_failures");
  }
};

}  // namespace

FrameBatcher::FrameBatcher(const telescope::Telescope& telescope,
                           ProbeBatchSink deliver)
    : telescope_(&telescope), deliver_(std::move(deliver)) {
  arm_batch();
}

const telescope::SensorCounters& FrameBatcher::finish() {
  if (window_frames_ > 0) flush_batch();
  return counters_;
}

void FrameBatcher::arm_batch() {
  // Every column sized to the window's worst case (all frames probes),
  // so probes are written through the raw cursor; resize() keeps
  // capacity on a recycled batch, so steady state re-arms without
  // allocating.
  batch_.timestamp_us.resize(kIngestBatchFrames);
  batch_.source.resize(kIngestBatchFrames);
  batch_.destination.resize(kIngestBatchFrames);
  batch_.source_port.resize(kIngestBatchFrames);
  batch_.destination_port.resize(kIngestBatchFrames);
  batch_.sequence.resize(kIngestBatchFrames);
  batch_.acknowledgment.resize(kIngestBatchFrames);
  batch_.ip_id.resize(kIngestBatchFrames);
  batch_.window.resize(kIngestBatchFrames);
  batch_.ttl.resize(kIngestBatchFrames);
  cursor_ = telescope::detail::ProbeCursor{
      batch_.timestamp_us.data(), batch_.source.data(),
      batch_.destination.data(),  batch_.source_port.data(),
      batch_.destination_port.data(), batch_.sequence.data(),
      batch_.acknowledgment.data(), batch_.ip_id.data(),
      batch_.window.data(),       batch_.ttl.data()};
}

void FrameBatcher::flush_batch() {
  const auto rows = cursor_.count;
  batch_.timestamp_us.resize(rows);
  batch_.source.resize(rows);
  batch_.destination.resize(rows);
  batch_.source_port.resize(rows);
  batch_.destination_port.resize(rows);
  batch_.sequence.resize(rows);
  batch_.acknowledgment.resize(rows);
  batch_.ip_id.resize(rows);
  batch_.window.resize(rows);
  batch_.ttl.resize(rows);
  frames_ += window_frames_;
  window_frames_ = 0;
  deliver_(batch_);
  arm_batch();
}

IngestResult ingest_capture(const std::filesystem::path& path,
                            const telescope::Telescope& telescope,
                            const IngestOptions& options, const ProbeBatchSink& sink) {
  const IngestMetrics metrics;
  IngestResult result;

  // Streams and FIFOs have no stable identity, so they are never cached.
  const auto identity =
      options.use_cache ? cache_identity(path) : std::optional<CacheIdentity>{};
  const auto cache_path = options.cache_path.empty()
                              ? std::filesystem::path(path.native() + ".spc")
                              : options.cache_path;

  // Whether the cold path may write a cache: never over a path that
  // something other than a regular file holds.
  bool cache_writable = false;
  if (identity) {
    std::error_code ec;
    const auto present = std::filesystem::status(cache_path, ec);
    const bool exists = std::filesystem::exists(present);
    cache_writable = !exists || std::filesystem::is_regular_file(present);
    if (exists) {
      if (auto reader = ProbeCacheReader::open(cache_path, *identity)) {
        telescope::ProbeBatch batch;
        std::uint64_t replayed = 0;
        while (reader->next_chunk(batch)) {
          ++result.batches;
          replayed += batch.size();
          if (metrics.batches != nullptr) metrics.batches->add();
          sink(batch);
        }
        result.sensor = reader->sensor();
        result.frames = reader->frame_count();
        result.status = reader->terminal_status();
        // A replay cut short (validation rules it out) is a defect, no hit.
        result.from_cache = replayed == result.sensor.scan_probes;
        if (!result.from_cache) {
          result.sensor.scan_probes = replayed;
          result.frames = result.sensor.total();
          result.status = pcap::ReadStatus::kBadRecord;
        } else if (metrics.cache_hits != nullptr) {
          metrics.cache_hits->add();
        }
        return result;
      }
      if (metrics.cache_invalidations != nullptr) metrics.cache_invalidations->add();
    } else if (metrics.cache_misses != nullptr) {
      metrics.cache_misses->add();
    }
  }

  // Cold path: decode + classify, refreshing the cache along the way.
  // Cache creation is best-effort (a read-only capture directory must
  // not fail the run).
  std::optional<ProbeCacheWriter> writer;
  if (cache_writable) {
    try {
      writer.emplace(cache_path, *identity);
    } catch (const std::exception&) {
    }
  }

  const auto deliver_batch = [&](const telescope::ProbeBatch& batch) {
    ++result.batches;
    if (metrics.batches != nullptr) metrics.batches->add();
    if (batch.empty()) return;
    if (writer) writer->append(batch);
    sink(batch);
  };

  // Open the capture once and sniff the bytes already in hand: a FIFO
  // hands its bytes to one reader only.
  const auto file = pcap::MappedFile::open(path);
  result.mapped = file.mapped();
  const bool pcapng = pcap::looks_like_pcapng(file.bytes());
  if (result.mapped && metrics.mmap_bytes != nullptr) {
    metrics.mmap_bytes->add(file.bytes().size());
  }
  if ((pcapng || !result.mapped) && metrics.fallback_reads != nullptr) {
    metrics.fallback_reads->add();
  }
  FrameBatcher batcher(telescope, deliver_batch);
  if (pcapng) {
    // pcapng stays record-at-a-time (variable block framing).
    auto reader = pcap::NgReader::over(file.bytes());
    net::RawFrame frame;
    while ((result.status = reader.next(frame)) == pcap::ReadStatus::kOk) {
      batcher.push(frame);
    }
  } else {
    // One walk over the whole record region, every record classified
    // straight off the mapping.
    auto reader = pcap::Reader::over(file.bytes());
    result.status = reader.scan([&batcher](net::TimeUs timestamp_us,
                                           const std::uint8_t* data,
                                           std::uint32_t captured_length) {
      batcher.consume(timestamp_us, data, captured_length);
    });
  }
  result.sensor = batcher.finish();
  result.frames = batcher.frames();

  if (identity) {
    result.cache_written =
        writer && writer->commit(result.frames, result.status, result.sensor);
    if (!result.cache_written && metrics.cache_write_failures != nullptr) {
      metrics.cache_write_failures->add();
    }
  }
  return result;
}

}  // namespace synscan::core
