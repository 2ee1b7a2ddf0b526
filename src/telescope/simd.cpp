#include "telescope/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "telescope/classify_detail.h"

namespace synscan::telescope::simd {
namespace {

SimdLevel cpu_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (detail::avx2_kernel_compiled() && __builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
  if (detail::sse2_kernel_compiled() && __builtin_cpu_supports("sse2")) {
    return SimdLevel::kSse2;
  }
#endif
  return SimdLevel::kScalar;
}

/// SYNSCAN_SIMD parsed against what the host offers. Unknown values are
/// ignored (auto) rather than erroring: a typo must not change results,
/// only possibly speed.
SimdLevel env_level(SimdLevel detected) noexcept {
  // getenv is mt-unsafe only against concurrent setenv; this process
  // never writes the environment, and the value is read exactly once
  // (static init of active_cell, which the language serializes even when
  // the first batchers are constructed on scan worker threads).
  const char* env = std::getenv("SYNSCAN_SIMD");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr) return detected;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(env, "sse2") == 0) {
    return detected < SimdLevel::kSse2 ? detected : SimdLevel::kSse2;
  }
  if (std::strcmp(env, "avx2") == 0) {
    return detected < SimdLevel::kAvx2 ? detected : SimdLevel::kAvx2;
  }
  return detected;  // "auto", "on", or anything unrecognized
}

std::atomic<SimdLevel>& active_cell() noexcept {
  // First use resolves cpuid + environment; set_active_level overwrites.
  static std::atomic<SimdLevel> level{env_level(cpu_level())};
  return level;
}

}  // namespace

SimdLevel detected_level() noexcept {
  static const SimdLevel level = cpu_level();
  return level;
}

SimdLevel active_level() noexcept {
  return active_cell().load(std::memory_order_relaxed);
}

void set_active_level(SimdLevel level) noexcept {
  const auto detected = detected_level();
  active_cell().store(level < detected ? level : detected,
                      std::memory_order_relaxed);
}

const char* to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace synscan::telescope::simd
