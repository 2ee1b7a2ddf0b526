// Batched capture ingest: capture file -> classified probe batches.
//
// This is the front half of every replay. It picks the fastest available
// path for the input —
//   1. a validated columnar probe cache (`.spc`, core/probe_cache.h):
//      skip decode and classification entirely;
//   2. a classic pcap walked in place (`pcap::MappedReader`): the
//      capture is mmap'ed, or bulk-read when it cannot be (a FIFO), and
//      its records are classified in batches via
//      `Sensor::classify_batch`;
//   3. pcapng input, read record-at-a-time from the same bytes and still
//      classified in batches —
// and hands the probes to the caller one `ProbeBatch` at a time. The
// capture is opened exactly once, so input that can be read only once
// works too. The paths produce bit-identical probes and sensor counters
// (held together by tests/integration/ingest_differential_test.cpp).
//
// After a cold decode of a regular file the probes are written back as a
// cache (best-effort: cache I/O failures never fail the run), so the
// second replay of the same capture takes path 1.
//
// Producers that are not capture files — the traffic generator, tests
// building frames by hand — reach analysis the same way, through
// `FrameBatcher`, the batching step the pcapng path runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <vector>

#include "core/probe_cache.h"
#include "net/packet.h"
#include "pcap/pcap.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::core {

/// Frames classified per batch on every decode path.
inline constexpr std::size_t kIngestBatchFrames = 4096;

struct IngestOptions {
  /// Read and write the sibling `.spc` probe cache.
  bool use_cache = true;
  /// Cold-scan parallelism: the capture's record region is split into
  /// this many record-aligned chunks (`pcap::partition_records`), each
  /// scanned and classified by its own thread, and the per-chunk probe
  /// batches are merged back in capture order — probes, counters,
  /// terminal status and `.spc` bytes are identical to the serial scan.
  /// 0 = auto (one chunk per hardware thread), 1 = serial. Small
  /// captures stay serial regardless: splitting pays off only once the
  /// scan outweighs thread startup.
  std::size_t scan_chunks = 0;
  /// Cache location override; empty means `<capture>.spc`.
  std::filesystem::path cache_path;
};

struct IngestResult {
  telescope::SensorCounters sensor;
  std::uint64_t frames = 0;
  pcap::ReadStatus status = pcap::ReadStatus::kEndOfFile;
  std::uint64_t batches = 0;
  std::uint64_t chunks = 0;     ///< scan chunks used by the cold path
  std::uint64_t simd_rows = 0;  ///< frames resolved on a vector lane
  bool from_cache = false;      ///< probes came from a validated cache
  bool mapped = false;          ///< capture bytes were mmap'ed
};

/// Receives each probe batch in capture order. The batch is only valid
/// for the duration of the call (buffers are recycled).
using ProbeBatchSink = std::function<void(const telescope::ProbeBatch&)>;

/// The frame→batch step for producers that hold one frame at a time
/// (pcapng records, the traffic generator): buffers raw frames,
/// classifies every `kIngestBatchFrames` of them with
/// `Sensor::classify_batch` and hands the resulting batch — possibly
/// empty — to the sink. Typical use feeds a pipeline:
///
///   FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& b) {
///     pipeline.feed_probes(b);
///   });
///   generator.run([&](const net::RawFrame& f) { batcher.push(f); });
///   pipeline.absorb_sensor_counters(batcher.finish());
class FrameBatcher {
 public:
  /// The sensor keeps a pointer; a temporary telescope would dangle.
  FrameBatcher(const telescope::Telescope& telescope, ProbeBatchSink sink);
  FrameBatcher(const telescope::Telescope&&, ProbeBatchSink) = delete;

  /// Copies one frame into the buffer; a full buffer is classified and
  /// delivered before this returns.
  void push(const net::RawFrame& frame);

  /// Classifies and delivers the buffered frames, if any. Returns the
  /// sensor counters over every frame pushed so far.
  const telescope::SensorCounters& finish();

  [[nodiscard]] std::uint64_t frames() const noexcept { return frames_; }
  /// Frames resolved on a vector lane (`Sensor::simd_rows`).
  [[nodiscard]] std::uint64_t simd_rows() const noexcept { return sensor_.simd_rows(); }

 private:
  void flush();

  telescope::Sensor sensor_;
  ProbeBatchSink sink_;
  std::vector<net::RawFrame> buffer_;  ///< kIngestBatchFrames reusable slots
  std::vector<net::FrameView> views_;
  telescope::ProbeBatch batch_;
  std::size_t filled_ = 0;   ///< slots holding frames not yet classified
  std::uint64_t frames_ = 0;  ///< frames pushed
};

/// Replays `path` (classic pcap or pcapng) through the fastest available
/// ingest path and feeds every scan probe to `sink` in capture order.
/// Throws what the underlying readers throw (unopenable file, bad
/// global header). `result.status` carries the reader's terminal status
/// exactly as `pcap::Reader` would have reported it.
IngestResult ingest_capture(const std::filesystem::path& path,
                            const telescope::Telescope& telescope,
                            const IngestOptions& options, const ProbeBatchSink& sink);

}  // namespace synscan::core
