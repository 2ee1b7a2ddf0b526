// Internal plumbing shared between the batch classifier
// (`core::FrameBatcher`, core/ingest.h) and the SIMD kernels
// (classify_sse2.cpp / classify_avx2.cpp). Not part of the telescope
// public surface: the batcher and the kernels write probes through the
// raw cursor, and every frame or lane they cannot prove eligible for the
// vector fast path falls back to *exactly* the scalar code the
// differential tests pin.
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

/// One frame of the scalar batch classifier (defined in sensor.cpp).
/// Every early return mirrors a rejection in decode_frame /
/// `Sensor::classify` so the counter histogram stays bit-identical to
/// the record-at-a-time path. The batcher calls this for short frames,
/// trailing partial groups and the scalar level; the SIMD kernels for
/// every lane their vector predicate cannot fully classify.
FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out);

struct PendingLanes;  // classify_lanes.h

/// One full vector group: classify the `pending` lanes in order,
/// appending probes through `out` and bumping `simd_rows` once per lane
/// fully resolved on the vector lane (lanes taking the scalar fallback
/// are not counted). The group size is the kernel's lane width — 8 for
/// AVX2, 4 for SSE2 — and `pending.count` must equal it (the no-kernel
/// stubs accept any count and run the scalar reference; `simd::`
/// dispatch never selects them). `core::FrameBatcher` assembles the
/// lanes as frames arrive.
void classify_group_sse2(const Telescope& telescope, const PendingLanes& pending,
                         SensorCounters& counters, ProbeCursor& out,
                         std::uint64_t& simd_rows);
void classify_group_avx2(const Telescope& telescope, const PendingLanes& pending,
                         SensorCounters& counters, ProbeCursor& out,
                         std::uint64_t& simd_rows);

/// True when the translation unit providing the kernel was built with
/// the matching instruction set (compiler support can lag the CPU).
[[nodiscard]] bool sse2_kernel_compiled() noexcept;
[[nodiscard]] bool avx2_kernel_compiled() noexcept;

}  // namespace synscan::telescope::detail
