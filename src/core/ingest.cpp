#include "core/ingest.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/probe_cache.h"
#include "core/sync.h"
#include "obs/metrics.h"
#include "pcap/mapped_reader.h"
#include "pcap/pcapng.h"

namespace synscan::core {
namespace {

/// Chunked scanning only pays once the scan outweighs thread startup;
/// below this capture size the cold path stays serial regardless of
/// `scan_chunks`.
constexpr std::uint64_t kMinChunkedBytes = 4u << 20;
/// Upper bound on scan chunks (and therefore scan threads) per ingest.
constexpr std::size_t kMaxScanChunks = 64;

/// The `ingest.*` metric cells, resolved once per run iff obs is on.
struct IngestMetrics {
  obs::Counter* batches = nullptr;
  obs::Counter* chunks = nullptr;
  obs::Counter* mmap_bytes = nullptr;
  obs::Counter* fallback_reads = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* cache_invalidations = nullptr;

  IngestMetrics() {
    if (!obs::enabled()) return;
    auto& registry = obs::MetricsRegistry::global();
    batches = &registry.counter("ingest.batches");
    chunks = &registry.counter("ingest.chunks");
    mmap_bytes = &registry.counter("ingest.mmap_bytes");
    fallback_reads = &registry.counter("ingest.fallback_reads");
    cache_hits = &registry.counter("ingest.cache_hits");
    cache_misses = &registry.counter("ingest.cache_misses");
    cache_invalidations = &registry.counter("ingest.cache_invalidations");
  }
};

/// What one chunk scan produced besides its batches.
struct ChunkTally {
  telescope::SensorCounters counters;
  std::uint64_t frames = 0;
  pcap::ReadStatus status = pcap::ReadStatus::kEndOfFile;
};

/// Walks one record-aligned chunk of a mapped capture, every record
/// classified straight off the walk.
ChunkTally scan_chunk(const telescope::Telescope& telescope,
                      const pcap::MappedReader& reader, pcap::ScanChunk chunk,
                      FrameBatcher::Deliver deliver) {
  FrameBatcher batcher(telescope, std::move(deliver));
  pcap::ChunkReader scanner(reader.bytes(), reader.info(), chunk);
  ChunkTally tally;
  tally.status = scanner.scan([&batcher](net::TimeUs timestamp_us, const std::uint8_t* data,
                                         std::uint32_t captured_length) {
    batcher.consume(timestamp_us, data, captured_length);
  });
  tally.counters = batcher.finish();
  tally.frames = scanner.frames_read();
  return tally;
}

/// Everything one scan worker produced, merged on the caller's thread.
struct ChunkOutcome {
  std::vector<telescope::ProbeBatch> batches;
  ChunkTally tally;
  std::exception_ptr error;
};

/// Hands chunk outcomes from scan workers back to the caller. Slots are
/// disjoint (worker i writes only slot i), so the lock is uncontended in
/// practice; taking it anyway makes the handoff visible to the
/// thread-safety analysis instead of leaning on the join alone.
class ChunkMerge {
 public:
  explicit ChunkMerge(std::size_t chunks) : outcomes_(chunks) {}

  void publish(std::size_t index, ChunkOutcome outcome) SYNSCAN_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    outcomes_[index] = std::move(outcome);
  }

  /// Moves every outcome out, in chunk (capture) order. Call once,
  /// after all workers are joined.
  [[nodiscard]] std::vector<ChunkOutcome> take() SYNSCAN_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return std::move(outcomes_);
  }

 private:
  Mutex mutex_;
  std::vector<ChunkOutcome> outcomes_ SYNSCAN_GUARDED_BY(mutex_);
};

}  // namespace

FrameBatcher::FrameBatcher(const telescope::Telescope& telescope, Deliver deliver)
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

  if (identity) {
    std::error_code ec;
    if (std::filesystem::exists(cache_path, ec) && !ec) {
      if (auto reader = ProbeCacheReader::open(cache_path, *identity)) {
        telescope::ProbeBatch batch;
        while (reader->next_chunk(batch)) {
          ++result.batches;
          if (metrics.batches != nullptr) metrics.batches->add();
          sink(batch);
        }
        result.sensor = reader->sensor();
        result.frames = reader->frame_count();
        result.status = reader->terminal_status();
        result.from_cache = true;
        if (metrics.cache_hits != nullptr) metrics.cache_hits->add();
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
  if (identity) {
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

  const auto absorb = [&result](const ChunkTally& tally) {
    result.frames += tally.frames;
    result.sensor.add(tally.counters);
    result.status = tally.status;
  };

  /// Cold scan of a classic capture. A single chunk is walked on this
  /// thread, its batches delivered as they fill. Several chunks are
  /// walked by one thread each into private batches, merged back here in
  /// capture order. A defect stops `partition_records` from splitting
  /// further, so non-final chunks always end kEndOfFile; the merge
  /// enforces the serial contract anyway — the first non-EOF status is
  /// terminal and every later chunk is discarded.
  const auto run_cold = [&](const pcap::MappedReader& reader) {
    auto want = options.scan_chunks;
    if (want == 0) {
      want = std::max<std::size_t>(std::size_t{1}, std::thread::hardware_concurrency());
    }
    if (reader.byte_size() < kMinChunkedBytes) want = 1;
    const auto chunks = reader.partition(std::min(want, kMaxScanChunks));
    result.chunks = chunks.size();
    if (chunks.size() == 1) {
      absorb(scan_chunk(telescope, reader, chunks.front(), deliver_batch));
      return;
    }
    ChunkMerge merge(chunks.size());
    {
      std::vector<std::thread> workers;
      workers.reserve(chunks.size());
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        workers.emplace_back([&telescope, &reader, &chunks, &merge, i] {
          // Workers accumulate into a private outcome and publish it
          // whole; nothing shared is touched until the final handoff.
          ChunkOutcome outcome;
          try {
            outcome.tally = scan_chunk(telescope, reader, chunks[i],
                                       [&outcome](telescope::ProbeBatch& batch) {
                                         outcome.batches.push_back(std::move(batch));
                                       });
          } catch (...) {
            outcome.error = std::current_exception();
          }
          merge.publish(i, std::move(outcome));
        });
      }
      for (auto& worker : workers) worker.join();
    }
    for (auto& outcome : merge.take()) {
      if (outcome.error) std::rethrow_exception(outcome.error);
      for (auto& batch : outcome.batches) deliver_batch(batch);
      absorb(outcome.tally);
      if (outcome.tally.status != pcap::ReadStatus::kEndOfFile) break;
    }
  };

  // Open the capture once and sniff the bytes already in hand: a FIFO
  // hands its bytes to one reader only.
  auto file = pcap::MappedFile::open(path);
  result.mapped = file.mapped();
  const bool pcapng = pcap::looks_like_pcapng(file.bytes());
  if (result.mapped && metrics.mmap_bytes != nullptr) {
    metrics.mmap_bytes->add(file.bytes().size());
  }
  if ((pcapng || !result.mapped) && metrics.fallback_reads != nullptr) {
    metrics.fallback_reads->add();
  }
  if (pcapng) {
    // pcapng stays record-at-a-time (variable block framing).
    auto reader = pcap::NgReader::over(file.bytes());
    FrameBatcher batcher(telescope, deliver_batch);
    net::RawFrame frame;
    while ((result.status = reader.next(frame)) == pcap::ReadStatus::kOk) {
      batcher.push(frame);
    }
    result.sensor = batcher.finish();
    result.frames = batcher.frames();
  } else {
    run_cold(pcap::MappedReader(std::move(file)));
    if (metrics.chunks != nullptr) metrics.chunks->add(result.chunks);
  }

  if (writer) {
    (void)writer->commit(result.frames, result.status, result.sensor);
  }
  return result;
}

}  // namespace synscan::core
