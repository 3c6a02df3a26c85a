// AVX2 backend of the allocation kernel: 4 lanes per 256-bit vector, so
// one round of the kernel's 8 lanes is two vectors.
//
// Per round (one ball per lane) each group of 4 lanes takes Bins::draws
// vectorized xoshiro256++ steps (3 uniform, 5 alias), a vectorized
// Lemire multiply-shift pass for both bin indices (or alias slots, then
// gathered keep-thresholds and aliases), a hardware gather of the two
// 8-bit snapshot loads, and a branchless min-select with the tie bit from
// the last draw -- no data-dependent branch anywhere on the fast path.
// The only exits are the coarse rejection test (fires with probability
// ~2^-32 per sample; the affected group replays through the scalar queue
// path, which preserves the per-lane draw order exactly) and the trailing
// partial round, which takes the same scalar replay path.
//
// Compiled with per-function target attributes (NB_TGT_AVX2) so the rest
// of the build stays portable; kernel dispatch never calls this backend
// unless the CPU reports AVX2.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <type_traits>

#include "core/kernel/kernel_common.hpp"

namespace nb::kernel_detail {
namespace {

NB_TGT_AVX2 inline __m256i rot64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

/// One xoshiro256++ step for 4 lanes at once (same update as lane_soa::next).
NB_TGT_AVX2 inline __m256i xo_step(__m256i& s0, __m256i& s1, __m256i& s2, __m256i& s3) {
  const __m256i result = _mm256_add_epi64(rot64(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rot64(s3, 45);
  return result;
}

/// Lemire multiply-shift for 4 draws x against a bound < 2^32: with
/// x = x_hi * 2^32 + x_lo, the 96-bit product splits into two 32x32->64
/// multiplies, giving candidate = (x * bound) >> 64 (a bin index, high
/// halves zero) and low = (x * bound) mod 2^64 (the rejection word).
NB_TGT_AVX2 inline void lemire4(__m256i x, __m256i bound, __m256i& candidate, __m256i& low) {
  const __m256i lo_prod = _mm256_mul_epu32(x, bound);                       // x_lo * bound
  const __m256i hi_prod = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), bound);  // x_hi * bound
  candidate = _mm256_srli_epi64(_mm256_add_epi64(hi_prod, _mm256_srli_epi64(lo_prod, 32)), 32);
  low = _mm256_add_epi64(_mm256_slli_epi64(hi_prod, 32), lo_prod);
}

/// One alias pick for 4 lanes: slot (64-bit lanes) + raw u64 draw ->
/// final bin index, still in 64-bit lanes for the snapshot gather.  keep
/// iff u < thresh[slot], unsigned (sign-flip + signed cmpgt).
NB_TGT_AVX2 inline __m256i pick4(__m256i slot, __m256i u, const std::uint64_t* thresh,
                                 const bin_index* alias) {
  const __m256i sign64 = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i th = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(thresh), slot, 8);
  const __m128i al32 = _mm256_i64gather_epi32(reinterpret_cast<const int*>(alias), slot, 4);
  const __m256i al = _mm256_cvtepu32_epi64(al32);
  const __m256i keep =
      _mm256_cmpgt_epi64(_mm256_xor_si256(th, sign64), _mm256_xor_si256(u, sign64));
  return _mm256_blendv_epi8(al, slot, keep);
}

}  // namespace

template <typename Bins>
NB_TGT_AVX2 void fill_avx2(lane_soa& st, bin_count n, std::uint64_t threshold,
                           const std::uint8_t* snap, Bins bins, std::uint32_t* chosen,
                           std::size_t balls) {
  constexpr int draws = Bins::draws;
  const auto bound64 = static_cast<std::uint64_t>(n);
  const __m256i bound = _mm256_set1_epi64x(static_cast<long long>(bound64));
  const __m256i zero = _mm256_setzero_si256();
  const __m128i bmask = _mm_set1_epi32(0xFF);
  const __m256i even_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i odd_dwords = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);

  std::size_t t = 0;
  while (t + kernel_lanes <= balls) {  // full rounds only; the tail runs scalar
    for (std::size_t lane0 = 0; lane0 < kernel_lanes; lane0 += 4) {
      __m256i s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s0.data() + lane0));
      __m256i s1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s1.data() + lane0));
      __m256i s2 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s2.data() + lane0));
      __m256i s3 = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s3.data() + lane0));
      __m256i d[draws];  // the group's raw draws, in each lane's draw order
      for (int k = 0; k < draws; ++k) d[k] = xo_step(s0, s1, s2, s3);
      _mm256_store_si256(reinterpret_cast<__m256i*>(st.s0.data() + lane0), s0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(st.s1.data() + lane0), s1);
      _mm256_store_si256(reinterpret_cast<__m256i*>(st.s2.data() + lane0), s2);
      _mm256_store_si256(reinterpret_cast<__m256i*>(st.s3.data() + lane0), s3);

      __m256i i1;
      __m256i i2;
      __m256i low_a;
      __m256i low_b;
      lemire4(d[0], bound, i1, low_a);
      lemire4(d[draws / 2], bound, i2, low_b);

      // Coarse rejection test: an actual rejection needs low < threshold
      // < 2^32, which forces the high dword of `low` to zero -- so "any
      // high dword zero" (probability ~2^-32 per draw) is a conservative
      // superset.  False positives just take the exact scalar replay.
      const __m256i hz = _mm256_or_si256(_mm256_cmpeq_epi32(low_a, zero),
                                         _mm256_cmpeq_epi32(low_b, zero));
      const auto reject = static_cast<std::uint32_t>(_mm256_movemask_epi8(hz)) & 0xF0F0F0F0u;
      if (reject != 0) [[unlikely]] {  // the whole group replays
        alignas(32) std::uint64_t q[draws][4];
        for (int k = 0; k < draws; ++k) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(q[k]), d[k]);
        }
        for (std::size_t l = 0; l < 4; ++l) {
          std::uint64_t queue[draws];
          for (int k = 0; k < draws; ++k) queue[k] = q[k][l];
          chosen[t + lane0 + l] =
              replay_ball(st, lane0 + l, bound64, threshold, snap, bins, queue, draws);
        }
        continue;
      }

      if constexpr (std::is_same_v<Bins, alias_bins>) {
        i1 = pick4(i1, d[1], bins.thresh, bins.alias);
        i2 = pick4(i2, d[3], bins.thresh, bins.alias);
      }

      // Gather the two 8-bit snapshot loads (4-byte reads at byte offsets;
      // compact_snapshot guarantees 3 bytes of tail padding).
      const __m128i ga = _mm_and_si128(
          _mm256_i64gather_epi32(reinterpret_cast<const int*>(snap), i1, 1), bmask);
      const __m128i gb = _mm_and_si128(
          _mm256_i64gather_epi32(reinterpret_cast<const int*>(snap), i2, 1), bmask);

      // Branchless min-select: pick i1 when snap[i1] < snap[i2], or on a
      // tie when the tie draw's top bit is set.
      const __m128i lt = _mm_cmplt_epi32(ga, gb);
      const __m128i eq = _mm_cmpeq_epi32(ga, gb);
      const __m128i tie = _mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_srai_epi32(d[draws - 1], 31), odd_dwords));
      const __m128i i1_32 =
          _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(i1, even_dwords));
      const __m128i i2_32 =
          _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(i2, even_dwords));
      const __m128i pick = _mm_or_si128(lt, _mm_and_si128(eq, tie));
      const __m128i ch = _mm_or_si128(_mm_and_si128(pick, i1_32), _mm_andnot_si128(pick, i2_32));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(chosen + t + lane0), ch);
    }
    t += kernel_lanes;
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {  // trailing partial round
    chosen[t] = replay_ball(st, l, bound64, threshold, snap, bins, nullptr, 0);
  }
}

template void fill_avx2<uniform_bins>(lane_soa&, bin_count, std::uint64_t, const std::uint8_t*,
                                      uniform_bins, std::uint32_t*, std::size_t);
template void fill_avx2<alias_bins>(lane_soa&, bin_count, std::uint64_t, const std::uint8_t*,
                                    alias_bins, std::uint32_t*, std::size_t);

}  // namespace nb::kernel_detail

#endif  // x86
