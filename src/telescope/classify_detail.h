// Internal plumbing shared between the scalar batch classifier
// (sensor.cpp) and the SIMD kernels (classify_sse2.cpp /
// classify_avx2.cpp). Not part of the telescope public surface: the
// kernels need the raw probe cursor and the scalar per-frame reference
// so that every lane they cannot prove eligible for the vector fast
// path falls back to *exactly* the code the differential tests pin.
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

/// One frame of the batched fast path (defined in sensor.cpp). Every
/// early return mirrors a rejection in decode_frame/`Sensor::classify`
/// so the counter histogram stays bit-identical to the record-at-a-time
/// path. The SIMD kernels call this for every frame their vector
/// predicate cannot fully classify.
FrameClass classify_raw(const Telescope& telescope, net::TimeUs timestamp_us,
                        std::span<const std::uint8_t> bytes, SensorCounters& counters,
                        ProbeCursor& out);

/// Vectorized batch kernels: classify `frames` in capture order,
/// appending probes through `out` and bumping `simd_rows` once per frame
/// that was fully resolved on the vector lane (frames taking the scalar
/// fallback are not counted). Counters, probes and probe order are
/// bit-identical to running `classify_raw` over the batch. On targets
/// without the instruction set the definitions degrade to the scalar
/// loop; `simd::detected_level()` never selects them there.
void classify_frames_sse2(const Telescope& telescope,
                          std::span<const net::FrameView> frames,
                          SensorCounters& counters, ProbeCursor& out,
                          std::uint64_t& simd_rows);
void classify_frames_avx2(const Telescope& telescope,
                          std::span<const net::FrameView> frames,
                          SensorCounters& counters, ProbeCursor& out,
                          std::uint64_t& simd_rows);

struct PendingLanes;  // classify_lanes.h

/// One full vector group: classify the `pending` lanes in order. The
/// group size is the kernel's lane width — 8 for AVX2, 4 for SSE2 —
/// and `pending.count` must equal it (the no-kernel stubs accept any
/// count and run the scalar reference). Entry point for the fused
/// scan-and-classify loop in core/ingest.cpp, which assembles lanes
/// straight off the record walk instead of staging `FrameView`s.
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
