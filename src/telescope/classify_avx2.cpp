// AVX2 batch-classify kernel: eight frames per group.
//
// The front half loads the nine fixed-offset header dwords of eight
// frames with one 32-bit-index gather per field: lane addresses are
// expressed relative to the group's first frame, which always fits a
// signed 32-bit offset for records of one mapped capture (a group spans
// at most eight records). Frames copied into heap slots by
// `core::FrameBatcher::push` can straddle more than ±1 GiB; such groups
// take the per-lane scalar reference instead — same counters, same
// probes, just not vector-resolved. The fields are
// byte-swapped and split into `LaneGroup` columns with vector shuffles,
// and the eligibility predicates are evaluated eight lanes at a time.
// The back half (`finish_lanes`, classify_lanes.h) is shared with the
// SSE2 kernel. Compiled via `#pragma GCC target` so the rest of the
// binary stays baseline; `simd::detected_level()` only selects this
// kernel when cpuid reports AVX2.
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SYNSCAN_AVX2_KERNEL 1
#else
#define SYNSCAN_AVX2_KERNEL 0
#endif

#include "telescope/classify_detail.h"
#include "telescope/classify_lanes.h"

namespace synscan::telescope::detail {

bool avx2_kernel_compiled() noexcept { return SYNSCAN_AVX2_KERNEL != 0; }

#if SYNSCAN_AVX2_KERNEL

#pragma GCC push_options
#pragma GCC target("avx2")

namespace {

/// Gathers the dword at `base + lane_offset + disp` of all eight lanes.
inline __m256i gather_field(const std::uint8_t* base, __m256i offsets, int disp) {
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast)
  return _mm256_i32gather_epi32(reinterpret_cast<const int*>(base + disp), offsets, 1);
}

/// Byte-swaps the low 16 bits of every dword lane (big-endian u16 field
/// sitting at the gather's base offset); high bits are discarded.
inline __m256i bswap16_low(__m256i v) {
  return _mm256_or_si256(
      _mm256_and_si256(_mm256_slli_epi32(v, 8), _mm256_set1_epi32(0xFF00)),
      _mm256_and_si256(_mm256_srli_epi32(v, 8), _mm256_set1_epi32(0x00FF)));
}

inline unsigned lane_mask(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
}

}  // namespace

/// Vector front half for one full group of eight eligible frames.
void classify_group_avx2(const Telescope& telescope, const PendingLanes& pending,
                         SensorCounters& counters, ProbeCursor& out,
                         std::uint64_t& simd_rows) {
  // Lane addresses as 32-bit offsets from the group's first frame.
  // Records of one capture window always fit; heap slots may not —
  // those groups take the scalar reference lane by lane.
  const std::uint8_t* base = pending.ptr[0];
  alignas(32) std::int32_t offset_lanes[8];
  std::int64_t spread = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::int64_t delta = pending.ptr[i] - base;
    spread |= delta < 0 ? -delta : delta;
    offset_lanes[i] = static_cast<std::int32_t>(delta);
  }
  if (spread > (std::int64_t{1} << 30)) {
    for (std::size_t i = 0; i < 8; ++i) {
      classify_raw(telescope, pending.ts[i], {pending.ptr[i], pending.caplen[i]},
                   counters, out);
    }
    return;
  }
  const __m256i offsets =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(offset_lanes));

  // Field offsets are frame-relative and fixed because the fast path
  // demands IHL == 5: Ethernet 0..13, IP 14..33, TCP 34..
  const __m256i g12 = gather_field(base, offsets, 12);  // ethertype|ver/ihl
  const __m256i g16 = gather_field(base, offsets, 16);  // total_len|ip_id
  const __m256i g20 = gather_field(base, offsets, 20);  // frag|ttl|proto
  const __m256i g26 = gather_field(base, offsets, 26);  // source
  const __m256i g30 = gather_field(base, offsets, 30);  // destination
  const __m256i g34 = gather_field(base, offsets, 34);  // sport|dport
  const __m256i g38 = gather_field(base, offsets, 38);  // sequence
  const __m256i g42 = gather_field(base, offsets, 42);  // ack
  const __m256i g46 = gather_field(base, offsets, 46);  // doff|flags|window

  const __m256i bswap32_shuffle = _mm256_set_epi8(
      12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,  //
      12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  const __m256i c19 = _mm256_set1_epi32(19);

  // header_ok: ethertype 0x0800, version 4, IHL 5, total_length >= 20.
  // All compared values fit in 17 bits, so signed compares are exact.
  const __m256i total_len = bswap16_low(g16);
  __m256i header_ok =
      _mm256_cmpeq_epi32(_mm256_and_si256(g12, _mm256_set1_epi32(0x00FFFFFF)),
                         _mm256_set1_epi32(0x00450008));
  header_ok = _mm256_and_si256(header_ok, _mm256_cmpgt_epi32(total_len, c19));

  // tcp_ok: additionally first fragment, protocol TCP, transport window
  // of at least 20 bytes, and data offset within [20, transport_size].
  const __m256i frag_zero =
      _mm256_cmpeq_epi32(_mm256_and_si256(g20, _mm256_set1_epi32(0x0000FF1F)),
                         _mm256_setzero_si256());
  const __m256i proto_tcp = _mm256_cmpeq_epi32(
      _mm256_and_si256(g20, _mm256_set1_epi32(static_cast<int>(0xFF000000u))),
      _mm256_set1_epi32(0x06000000));
  const __m256i caplen =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pending.caplen));
  const __m256i ip_size = _mm256_sub_epi32(caplen, _mm256_set1_epi32(14));
  const __m256i available = _mm256_min_epi32(ip_size, total_len);
  const __m256i transport_size = _mm256_sub_epi32(available, _mm256_set1_epi32(20));
  const __m256i doff_len = _mm256_slli_epi32(
      _mm256_and_si256(_mm256_srli_epi32(g46, 4), _mm256_set1_epi32(0x0F)), 2);
  const __m256i shape_ok = _mm256_and_si256(
      _mm256_cmpgt_epi32(transport_size, c19),
      _mm256_andnot_si256(_mm256_cmpgt_epi32(doff_len, transport_size),
                          _mm256_cmpgt_epi32(doff_len, c19)));
  const __m256i tcp_ok = _mm256_and_si256(
      header_ok, _mm256_and_si256(_mm256_and_si256(frag_zero, proto_tcp), shape_ok));

  LaneGroup lanes;
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.source),
                     _mm256_shuffle_epi8(g26, bswap32_shuffle));
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.destination),
                     _mm256_shuffle_epi8(g30, bswap32_shuffle));
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.sequence),
                     _mm256_shuffle_epi8(g38, bswap32_shuffle));
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.acknowledgment),
                     _mm256_shuffle_epi8(g42, bswap32_shuffle));
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.source_port), bswap16_low(g34));
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.destination_port),
                     bswap16_low(_mm256_srli_epi32(g34, 16)));
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.ip_id),
                     bswap16_low(_mm256_srli_epi32(g16, 16)));
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.window),
                     bswap16_low(_mm256_srli_epi32(g46, 16)));
  _mm256_store_si256(
      reinterpret_cast<__m256i*>(lanes.ttl),
      _mm256_and_si256(_mm256_srli_epi32(g20, 16), _mm256_set1_epi32(0xFF)));
  _mm256_store_si256(
      reinterpret_cast<__m256i*>(lanes.flags),
      _mm256_and_si256(_mm256_srli_epi32(g46, 8), _mm256_set1_epi32(0x3F)));

  finish_lanes(telescope, pending, lanes, lane_mask(header_ok), lane_mask(tcp_ok), 8,
               counters, out, simd_rows);
}

#pragma GCC pop_options

#else  // !SYNSCAN_AVX2_KERNEL

void classify_group_avx2(const Telescope& telescope, const PendingLanes& pending,
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
