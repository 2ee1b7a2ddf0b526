// Internal plumbing of the program's one frame classifier
// (`core::FrameBatcher`, core/ingest.h). Not part of the telescope public
// surface: the batcher classifies every frame with `classify_raw` and
// writes probes through the raw cursor. The tests hold it to an
// independent per-frame reference decoder kept in tests/.
#pragma once

#include <cstdint>
#include <span>

#include "net/packet.h"
#include "telescope/sensor.h"
#include "telescope/telescope.h"

namespace synscan::telescope::detail {

/// Raw write cursor over a `ProbeBatch` whose columns are pre-sized to
/// the batch's worst case: probe emission is ten unchecked stores plus
/// one shared count, instead of ten `push_back` capacity checks.
struct ProbeCursor {
  net::TimeUs* timestamp_us;
  std::uint32_t* source;
  std::uint32_t* destination;
  std::uint16_t* source_port;
  std::uint16_t* destination_port;
  std::uint32_t* sequence;
  std::uint32_t* acknowledgment;
  std::uint16_t* ip_id;
  std::uint16_t* window;
  std::uint8_t* ttl;
  std::size_t count = 0;
};

/// One frame of the batch classifier (defined in sensor.cpp): an
/// Ethernet II frame is counted under exactly one `FrameClass`, and a
/// scan probe is written through `out`. Reads `bytes` only during the
/// call.
FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out);

}  // namespace synscan::telescope::detail
