// Runtime SIMD dispatch for the batch classifier.
//
// Each `core::FrameBatcher` picks, when it is constructed, the widest
// kernel the host supports (detected once via cpuid): AVX2 gathers eight
// frames per group, SSE2 four, and the scalar loop remains both the
// fallback and the differential reference. The choice can be overridden
// for tests, benches and incident triage:
//   - environment: SYNSCAN_SIMD=off|scalar|sse2|avx2|auto (read once,
//     when the first batcher is constructed);
//   - programmatically: `set_active_level` (clamped to what the host
//     can actually run), which batchers constructed afterwards obey.
#pragma once

namespace synscan::telescope::simd {

/// Kernel tiers, widest last. kScalar is always available.
enum class SimdLevel { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The widest level this host can run (cpuid ∩ compiled kernels).
/// Constant for the process lifetime.
[[nodiscard]] SimdLevel detected_level() noexcept;

/// The level a `core::FrameBatcher` constructed now dispatches on:
/// `detected_level` lowered by SYNSCAN_SIMD and/or `set_active_level`.
[[nodiscard]] SimdLevel active_level() noexcept;

/// Overrides the active level (tests force every tier; benches pin a
/// path). Requests above `detected_level()` are clamped down, so asking
/// for kAvx2 on an SSE2-only host selects kSse2.
void set_active_level(SimdLevel level) noexcept;

/// "scalar" | "sse2" | "avx2" — stable names, used in bench JSON.
[[nodiscard]] const char* to_string(SimdLevel level) noexcept;

}  // namespace synscan::telescope::simd
