// Batched capture ingest: capture file -> classified probe batches.
//
// This is the front half of every replay. It picks the fastest available
// path for the input —
//   1. a validated columnar probe cache (`.spc`, core/probe_cache.h):
//      skip decode and classification entirely;
//   2. a classic pcap walked in place: the capture is mmap'ed, or
//      bulk-read when it cannot be (a FIFO), into one `pcap::MappedFile`,
//      and one `pcap::Reader::scan` over the whole record region hands
//      every record straight to `FrameBatcher::consume`;
//   3. pcapng input, read record-at-a-time from the same bytes by
//      `pcap::NgReader` and handed to `FrameBatcher::push` —
// and hands the probes to the caller one `ProbeBatch` at a time. Every
// path streams on the calling thread: one batch is in flight, handed to
// the `.spc` writer and the sink as it fills, and ingest starts no
// thread of its own. The capture is opened exactly once, so input that
// can be read only once works too. The paths produce bit-identical
// probes and sensor counters (held together by
// tests/integration/ingest_differential_test.cpp).
//
// After a cold decode of a regular file the probes are written back as a
// cache (best-effort: cache I/O failures never fail the run, they only
// leave `cache_written` false), so the second replay of the same capture
// takes path 1. A cache path held by anything but a regular file (a
// directory, say) is never written to.
//
// Producers that are not capture files — the traffic generator, tests
// building frames by hand — reach analysis the same way, through
// `FrameBatcher::push`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>

#include "core/probe_cache.h"
#include "net/packet.h"
#include "pcap/pcap.h"
#include "telescope/classify_detail.h"
#include "telescope/probe_batch.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::core {

/// Frames classified per batch on every decode path.
inline constexpr std::size_t kIngestBatchFrames = 4096;

struct IngestOptions {
  /// Read and write the sibling `.spc` probe cache.
  bool use_cache = true;
  /// Cache location override; empty means `<capture>.spc`.
  std::filesystem::path cache_path;
};

struct IngestResult {
  telescope::SensorCounters sensor;
  std::uint64_t frames = 0;
  pcap::ReadStatus status = pcap::ReadStatus::kEndOfFile;
  std::uint64_t batches = 0;
  bool from_cache = false;  ///< probes came from a validated cache
  bool cache_written = false;  ///< this run committed a fresh cache
  bool mapped = false;      ///< capture bytes were mmap'ed
};

/// Receives each probe batch in capture order. The batch is only valid
/// for the duration of the call (buffers are recycled).
using ProbeBatchSink = std::function<void(const telescope::ProbeBatch&)>;

/// The program's one frame classifier: every producer's frames become
/// `ProbeBatch`es here, each classified by `telescope::detail::classify_raw`.
/// Frames arrive in capture order through `consume` (record bytes, such
/// as a mapped capture walked by `pcap::Reader::scan`) or `push`
/// (a whole frame: pcapng records, the traffic generator). Both read a
/// frame's bytes only during the call, so callers may reuse their
/// buffer. Every `kIngestBatchFrames` frames the batch — possibly empty —
/// goes to the deliver callback. Typical use feeds a pipeline:
///
///   FrameBatcher batcher(telescope, [&](const telescope::ProbeBatch& b) {
///     pipeline.feed_probes(b);
///   });
///   generator.run([&](const net::RawFrame& f) { batcher.push(f); });
///   pipeline.absorb_sensor_counters(batcher.finish());
///
/// Probes keep frame order. Ethernet II frames only: the capture readers
/// refuse any other link type before a frame reaches `consume`.
class FrameBatcher {
 public:
  /// The batcher keeps a pointer to the telescope; a temporary would
  /// dangle.
  FrameBatcher(const telescope::Telescope& telescope, ProbeBatchSink deliver);
  FrameBatcher(const telescope::Telescope&&, ProbeBatchSink) = delete;
  /// The write cursor points into the batcher's own batch.
  FrameBatcher(const FrameBatcher&) = delete;
  FrameBatcher& operator=(const FrameBatcher&) = delete;

  /// One frame, in capture order.
  void push(const net::RawFrame& frame) {
    consume(frame.timestamp_us, frame.bytes.data(),
            static_cast<std::uint32_t>(frame.bytes.size()));
  }

  /// One record, in capture order. Defined here so it inlines into the
  /// record walk.
  void consume(net::TimeUs timestamp_us, const std::uint8_t* data,
               std::uint32_t captured_length) {
    telescope::detail::classify_raw(*telescope_, timestamp_us, {data, captured_length},
                                    counters_, cursor_);
    if (++window_frames_ == kIngestBatchFrames) flush_batch();
  }

  /// Delivers the partial batch, if any frame arrived since the last
  /// delivery. Returns the sensor counters over every frame so far.
  const telescope::SensorCounters& finish();

  [[nodiscard]] std::uint64_t frames() const noexcept { return frames_ + window_frames_; }

 private:
  void arm_batch();
  void flush_batch();

  const telescope::Telescope* telescope_;
  ProbeBatchSink deliver_;
  telescope::SensorCounters counters_;
  std::uint64_t frames_ = 0;       ///< frames in delivered batches
  std::size_t window_frames_ = 0;  ///< frames since the last delivery
  telescope::ProbeBatch batch_;
  telescope::detail::ProbeCursor cursor_{};
};

/// Replays `path` (classic pcap or pcapng) through the fastest available
/// ingest path and feeds every scan probe to `sink` in capture order.
/// Throws what the underlying readers throw (unopenable file, bad
/// global header, a link type other than Ethernet). `result.status`
/// carries the reader's terminal status exactly as `pcap::Reader::next`
/// (or `pcap::NgReader::next`) would have reported it.
IngestResult ingest_capture(const std::filesystem::path& path,
                            const telescope::Telescope& telescope,
                            const IngestOptions& options, const ProbeBatchSink& sink);

}  // namespace synscan::core
