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
#include "telescope/classify_detail.h"
#include "telescope/classify_lanes.h"
#include "telescope/simd.h"

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
  obs::Counter* simd_rows = nullptr;
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
    simd_rows = &registry.counter("ingest.simd_rows");
    mmap_bytes = &registry.counter("ingest.mmap_bytes");
    fallback_reads = &registry.counter("ingest.fallback_reads");
    cache_hits = &registry.counter("ingest.cache_hits");
    cache_misses = &registry.counter("ingest.cache_misses");
    cache_invalidations = &registry.counter("ingest.cache_invalidations");
  }
};

/// Classifier sink for the fused record walk (`ChunkReader::scan`):
/// consumes records straight off the walk, assembling SIMD lane groups
/// in place instead of staging `net::FrameView`s, and hands off one
/// `ProbeBatch` per `kIngestBatchFrames` frames. Group formation restarts at
/// every batch boundary (the trailing partial group is classified by the
/// scalar reference), exactly like `Sensor::classify_batch` over the
/// same windows — probes, probe order and counters are bit-identical to
/// the scalar loop on any dispatch level. The deliver callback may move
/// the batch away; buffers are re-armed either way.
class FusedClassifier {
 public:
  using Deliver = std::function<void(telescope::ProbeBatch&)>;
  using GroupFn = void (*)(const telescope::Telescope&,
                           const telescope::detail::PendingLanes&,
                           telescope::SensorCounters&, telescope::detail::ProbeCursor&,
                           std::uint64_t&);

  FusedClassifier(const telescope::Telescope& telescope, Deliver deliver)
      : telescope_(&telescope), deliver_(std::move(deliver)) {
    switch (telescope::simd::active_level()) {
      case telescope::simd::SimdLevel::kAvx2:
        group_size_ = 8;
        group_fn_ = &telescope::detail::classify_group_avx2;
        break;
      case telescope::simd::SimdLevel::kSse2:
        group_size_ = 4;
        group_fn_ = &telescope::detail::classify_group_sse2;
        break;
      case telescope::simd::SimdLevel::kScalar:
        break;
    }
    arm_batch();
  }

  /// One record, in capture order; the bytes must stay valid until the
  /// batch holding this frame's probe has been delivered (they point
  /// into the capture window, which outlives the scan).
  void consume(net::TimeUs timestamp_us, const std::uint8_t* data,
               std::uint32_t captured_length) {
    if (group_size_ == 0 || captured_length < telescope::detail::kMinLaneBytes) {
      // Short frames can never emit a probe (no room for a full TCP
      // header), so classifying them immediately preserves probe order.
      telescope::detail::classify_raw(*telescope_, timestamp_us,
                                      {data, captured_length}, counters_, cursor_);
    } else {
      pending_.ptr[pending_.count] = data;
      pending_.caplen[pending_.count] = captured_length;
      pending_.ts[pending_.count] = timestamp_us;
      if (++pending_.count == group_size_) {
        group_fn_(*telescope_, pending_, counters_, cursor_, simd_rows_);
        pending_.count = 0;
      }
    }
    if (++window_frames_ == kIngestBatchFrames) flush_batch();
  }

  /// Delivers the final partial batch (if any frames were consumed since
  /// the last flush). Call exactly once, after the walk ends.
  void finish() {
    if (window_frames_ > 0) flush_batch();
  }

  [[nodiscard]] const telescope::SensorCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::uint64_t simd_rows() const noexcept { return simd_rows_; }

 private:
  /// Sizes every column to the window's worst case (all frames probes)
  /// and points the cursor at the column bases; resize() keeps capacity
  /// on a recycled batch, so steady state re-arms without allocating.
  void arm_batch() {
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

  void flush_batch() {
    // Scalar tail for the incomplete lane group, exactly like the batch
    // kernels: group formation restarts at every window boundary.
    for (std::size_t i = 0; i < pending_.count; ++i) {
      telescope::detail::classify_raw(*telescope_, pending_.ts[i],
                                      {pending_.ptr[i], pending_.caplen[i]}, counters_,
                                      cursor_);
    }
    pending_.count = 0;
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
    deliver_(batch_);
    window_frames_ = 0;
    arm_batch();
  }

  const telescope::Telescope* telescope_;
  Deliver deliver_;
  std::size_t group_size_ = 0;  ///< kernel lane width; 0 = scalar loop
  GroupFn group_fn_ = nullptr;
  telescope::detail::PendingLanes pending_;
  telescope::SensorCounters counters_;
  std::uint64_t simd_rows_ = 0;
  std::size_t window_frames_ = 0;  ///< frames consumed since last flush
  telescope::ProbeBatch batch_;
  telescope::detail::ProbeCursor cursor_{};
};

/// Everything one scan worker produced, merged on the caller's thread.
struct ChunkOutcome {
  std::vector<telescope::ProbeBatch> batches;
  telescope::SensorCounters counters;
  std::uint64_t frames = 0;
  std::uint64_t simd_rows = 0;
  pcap::ReadStatus status = pcap::ReadStatus::kEndOfFile;
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

FrameBatcher::FrameBatcher(const telescope::Telescope& telescope, ProbeBatchSink sink)
    : sensor_(telescope), sink_(std::move(sink)), buffer_(kIngestBatchFrames) {
  views_.reserve(kIngestBatchFrames);
  batch_.reserve(kIngestBatchFrames);
}

void FrameBatcher::push(const net::RawFrame& frame) {
  // Slots keep their byte buffers, so steady state copies without
  // allocating.
  auto& slot = buffer_[filled_];
  slot.timestamp_us = frame.timestamp_us;
  slot.bytes.assign(frame.bytes.begin(), frame.bytes.end());
  ++frames_;
  if (++filled_ == buffer_.size()) flush();
}

const telescope::SensorCounters& FrameBatcher::finish() {
  if (filled_ > 0) flush();
  return sensor_.counters();
}

void FrameBatcher::flush() {
  views_.clear();
  for (std::size_t i = 0; i < filled_; ++i) views_.push_back(net::as_view(buffer_[i]));
  filled_ = 0;
  batch_.clear();
  sensor_.classify_batch(views_, batch_);
  sink_(batch_);
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

  /// Serial fused scan: one walk over the whole record region, records
  /// classified straight off the walk.
  const auto run_serial = [&](pcap::MappedReader& reader) {
    result.chunks = 1;
    FusedClassifier classifier(telescope, deliver_batch);
    pcap::ChunkReader chunk(
        reader.bytes(), reader.info(),
        {std::min<std::size_t>(pcap::kGlobalHeaderSize, reader.bytes().size()),
         reader.bytes().size()});
    result.status = chunk.scan([&classifier](net::TimeUs timestamp_us,
                                             const std::uint8_t* data,
                                             std::uint32_t captured_length) {
      classifier.consume(timestamp_us, data, captured_length);
    });
    classifier.finish();
    result.frames = chunk.frames_read();
    result.sensor = classifier.counters();
    result.simd_rows = classifier.simd_rows();
  };

  /// Parallel fused scan: each chunk is walked and classified by its own
  /// thread into private batches, then everything is merged back on this
  /// thread in capture order. A defect stops `partition_records` from
  /// splitting further, so non-final chunks always end kEndOfFile; the
  /// merge enforces the serial contract anyway — the first non-EOF
  /// status is terminal and every later chunk is discarded.
  const auto run_chunked = [&](pcap::MappedReader& reader,
                               const std::vector<pcap::ScanChunk>& chunks) {
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
            FusedClassifier classifier(telescope, [&outcome](telescope::ProbeBatch& batch) {
              outcome.batches.push_back(std::move(batch));
            });
            pcap::ChunkReader chunk(reader.bytes(), reader.info(), chunks[i]);
            outcome.status = chunk.scan([&classifier](net::TimeUs timestamp_us,
                                                      const std::uint8_t* data,
                                                      std::uint32_t captured_length) {
              classifier.consume(timestamp_us, data, captured_length);
            });
            classifier.finish();
            outcome.frames = chunk.frames_read();
            outcome.counters = classifier.counters();
            outcome.simd_rows = classifier.simd_rows();
          } catch (...) {
            outcome.error = std::current_exception();
          }
          merge.publish(i, std::move(outcome));
        });
      }
      for (auto& worker : workers) worker.join();
    }
    result.chunks = chunks.size();
    auto outcomes = merge.take();
    for (auto& outcome : outcomes) {
      if (outcome.error) std::rethrow_exception(outcome.error);
      for (auto& batch : outcome.batches) deliver_batch(batch);
      result.frames += outcome.frames;
      result.sensor.add(outcome.counters);
      result.simd_rows += outcome.simd_rows;
      if (outcome.status != pcap::ReadStatus::kEndOfFile) {
        result.status = outcome.status;
        break;
      }
    }
  };

  const auto run_cold = [&](pcap::MappedReader& reader) {
    auto want = options.scan_chunks;
    if (want == 0) {
      want = std::max<std::size_t>(std::size_t{1}, std::thread::hardware_concurrency());
    }
    want = std::min(want, kMaxScanChunks);
    if (want > 1 && reader.byte_size() >= kMinChunkedBytes) {
      if (auto chunks = reader.partition(want); chunks.size() > 1) {
        run_chunked(reader, chunks);
      } else {
        run_serial(reader);
      }
    } else {
      run_serial(reader);
    }
    if (metrics.chunks != nullptr) metrics.chunks->add(result.chunks);
    if (metrics.simd_rows != nullptr) metrics.simd_rows->add(result.simd_rows);
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
    // pcapng stays record-at-a-time (variable block framing), but the
    // frames are still classified in batches.
    auto reader = pcap::NgReader::over(file.bytes());
    FrameBatcher batcher(telescope, deliver_batch);
    net::RawFrame frame;
    while ((result.status = reader.next(frame)) == pcap::ReadStatus::kOk) {
      batcher.push(frame);
    }
    result.sensor = batcher.finish();
    result.frames = batcher.frames();
    result.simd_rows = batcher.simd_rows();
    if (metrics.simd_rows != nullptr) metrics.simd_rows->add(result.simd_rows);
  } else {
    pcap::MappedReader reader(std::move(file));
    run_cold(reader);
  }

  if (writer) {
    (void)writer->commit(result.frames, result.status, result.sensor);
  }
  return result;
}

}  // namespace synscan::core
