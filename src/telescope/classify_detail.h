// Internal plumbing of the batch classifier (`core::FrameBatcher`,
// core/ingest.h). Not part of the telescope public surface: the batcher
// classifies every frame with `classify_raw` and writes probes through
// the raw cursor; `Sensor::classify` stays the per-frame reference the
// differential tests pin it to.
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

/// One frame of the batch classifier (defined in sensor.cpp). Every
/// early return mirrors a rejection in decode_frame / `Sensor::classify`
/// so the counter histogram stays bit-identical to the record-at-a-time
/// path. Reads `bytes` only during the call.
FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out);

}  // namespace synscan::telescope::detail
