// SSE2 batch-classify kernel: four frames per group.
//
// SSE2 is the x86-64 baseline, so this file needs no target pragma: the
// front half emulates gathers with four scalar dword loads per field
// (there is no gather before AVX2) but still evaluates the eligibility
// predicates and byte swaps four lanes at a time, and shares the scalar
// back half (`finish_lanes`, classify_lanes.h) with the AVX2 kernel.
// Byte swaps use shift/mask sequences: pshufb is SSSE3, not SSE2.
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE2__)
#include <emmintrin.h>
#define SYNSCAN_SSE2_KERNEL 1
#else
#define SYNSCAN_SSE2_KERNEL 0
#endif

#include "telescope/classify_detail.h"
#include "telescope/classify_lanes.h"

namespace synscan::telescope::detail {

bool sse2_kernel_compiled() noexcept { return SYNSCAN_SSE2_KERNEL != 0; }

#if SYNSCAN_SSE2_KERNEL

namespace {

/// Four scalar dword loads standing in for a gather.
inline __m128i load_field(const PendingLanes& pending, std::size_t disp) {
  const auto lane = [&](std::size_t i) {
    std::uint32_t v;
    std::memcpy(&v, pending.ptr[i] + disp, sizeof(v));
    return static_cast<int>(v);
  };
  return _mm_set_epi32(lane(3), lane(2), lane(1), lane(0));
}

/// Byte-swaps the low 16 bits of every dword lane.
inline __m128i bswap16_low(__m128i v) {
  return _mm_or_si128(_mm_and_si128(_mm_slli_epi32(v, 8), _mm_set1_epi32(0xFF00)),
                      _mm_and_si128(_mm_srli_epi32(v, 8), _mm_set1_epi32(0x00FF)));
}

/// Full dword byte swap via shifts (no pshufb under plain SSE2).
inline __m128i bswap32(__m128i v) {
  const __m128i swapped_16 =
      _mm_or_si128(_mm_slli_epi32(v, 16), _mm_srli_epi32(v, 16));
  return _mm_or_si128(
      _mm_and_si128(_mm_slli_epi32(swapped_16, 8),
                    _mm_set1_epi32(static_cast<int>(0xFF00FF00u))),
      _mm_and_si128(_mm_srli_epi32(swapped_16, 8), _mm_set1_epi32(0x00FF00FF)));
}

/// Lane-wise min for small non-negative values (no epi32 min in SSE2).
inline __m128i min_epi32(__m128i a, __m128i b) {
  const __m128i a_smaller = _mm_cmpgt_epi32(b, a);
  return _mm_or_si128(_mm_and_si128(a_smaller, a), _mm_andnot_si128(a_smaller, b));
}

inline unsigned lane_mask(__m128i v) {
  return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(v)));
}

}  // namespace

/// Vector front half for one full group of four eligible frames. The
/// predicate and extraction logic mirrors classify_avx2.cpp lane for
/// lane; see that file for the field map.
void classify_group_sse2(const Telescope& telescope, const PendingLanes& pending,
                         SensorCounters& counters, ProbeCursor& out,
                         std::uint64_t& simd_rows) {
  const __m128i g12 = load_field(pending, 12);
  const __m128i g16 = load_field(pending, 16);
  const __m128i g20 = load_field(pending, 20);
  const __m128i g26 = load_field(pending, 26);
  const __m128i g30 = load_field(pending, 30);
  const __m128i g34 = load_field(pending, 34);
  const __m128i g38 = load_field(pending, 38);
  const __m128i g42 = load_field(pending, 42);
  const __m128i g46 = load_field(pending, 46);

  const __m128i c19 = _mm_set1_epi32(19);
  const __m128i total_len = bswap16_low(g16);
  __m128i header_ok = _mm_cmpeq_epi32(_mm_and_si128(g12, _mm_set1_epi32(0x00FFFFFF)),
                                      _mm_set1_epi32(0x00450008));
  header_ok = _mm_and_si128(header_ok, _mm_cmpgt_epi32(total_len, c19));

  const __m128i frag_zero = _mm_cmpeq_epi32(
      _mm_and_si128(g20, _mm_set1_epi32(0x0000FF1F)), _mm_setzero_si128());
  const __m128i proto_tcp =
      _mm_cmpeq_epi32(_mm_and_si128(g20, _mm_set1_epi32(static_cast<int>(0xFF000000u))),
                      _mm_set1_epi32(0x06000000));
  const __m128i caplen = _mm_load_si128(reinterpret_cast<const __m128i*>(pending.caplen));
  const __m128i ip_size = _mm_sub_epi32(caplen, _mm_set1_epi32(14));
  const __m128i available = min_epi32(ip_size, total_len);
  const __m128i transport_size = _mm_sub_epi32(available, _mm_set1_epi32(20));
  const __m128i doff_len =
      _mm_slli_epi32(_mm_and_si128(_mm_srli_epi32(g46, 4), _mm_set1_epi32(0x0F)), 2);
  const __m128i shape_ok =
      _mm_and_si128(_mm_cmpgt_epi32(transport_size, c19),
                    _mm_andnot_si128(_mm_cmpgt_epi32(doff_len, transport_size),
                                     _mm_cmpgt_epi32(doff_len, c19)));
  const __m128i tcp_ok = _mm_and_si128(
      header_ok, _mm_and_si128(_mm_and_si128(frag_zero, proto_tcp), shape_ok));

  LaneGroup lanes;
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.source), bswap32(g26));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.destination), bswap32(g30));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.sequence), bswap32(g38));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.acknowledgment), bswap32(g42));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.source_port), bswap16_low(g34));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.destination_port),
                  bswap16_low(_mm_srli_epi32(g34, 16)));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.ip_id),
                  bswap16_low(_mm_srli_epi32(g16, 16)));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.window),
                  bswap16_low(_mm_srli_epi32(g46, 16)));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.ttl),
                  _mm_and_si128(_mm_srli_epi32(g20, 16), _mm_set1_epi32(0xFF)));
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes.flags),
                  _mm_and_si128(_mm_srli_epi32(g46, 8), _mm_set1_epi32(0x3F)));

  finish_lanes(telescope, pending, lanes, lane_mask(header_ok), lane_mask(tcp_ok), 4,
               counters, out, simd_rows);
}

#else  // !SYNSCAN_SSE2_KERNEL

void classify_group_sse2(const Telescope& telescope, const PendingLanes& pending,
                         SensorCounters& counters, ProbeCursor& out,
                         std::uint64_t& simd_rows) {
  (void)simd_rows;  // never selected by dispatch; scalar loop for safety
  for (std::size_t i = 0; i < pending.count; ++i) {
    classify_raw(telescope, pending.ts[i], {pending.ptr[i], pending.caplen[i]},
                 counters, out);
  }
}

#endif

}  // namespace synscan::telescope::detail
