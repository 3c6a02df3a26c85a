// AVX-512 backend of the allocation kernel: 8 lanes per 512-bit vector,
// so one round of the kernel's 8 lanes is one vector.
//
// Structurally the AVX2 backend doubled, with three upgrades the wider
// ISA makes cheap:
//
//  * Native 64-bit machinery end to end: vpgatherqq for the alias
//    thresholds, vpgatherqd for snapshot/alias bytes, vprolq for the
//    xoshiro rotates (one instruction instead of shift+shift+or), and
//    mask-register compares instead of vector masks + movemask.
//
//  * EXACT Lemire rejection via _mm512_cmplt_epu64_mask(low, threshold)
//    -- the AVX2 backend only has signed 32-bit compares and settles for
//    a conservative "any high dword zero" superset test.
//
//  * MASKED rejection replay: the vector result is computed
//    unconditionally (a Lemire candidate is < bound even for a rejected
//    draw, so every gather is in-bounds) and only the rejected lanes'
//    entries are overwritten by the scalar queue replay.  Accepted lanes
//    never leave the vector path, so a rejection costs one lane's
//    replay, not a whole group's.
//
// Dispatch requires avx512f+dq+bw+vl (Skylake-SP+), checked on top of
// AVX2.  Compiled with per-function target attributes so the rest of the
// build stays portable.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "core/kernel/kernel_common.hpp"

#define NB_TGT_AVX512 __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))

namespace nb::kernel_detail {
namespace {

/// One xoshiro256++ step for 8 lanes (same update as lane_soa::next);
/// vprolq gives the rotates in one instruction each.
NB_TGT_AVX512 inline __m512i xo_step(__m512i& s0, __m512i& s1, __m512i& s2, __m512i& s3) {
  const __m512i result = _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
  const __m512i t = _mm512_slli_epi64(s1, 17);
  s2 = _mm512_xor_si512(s2, s0);
  s3 = _mm512_xor_si512(s3, s1);
  s1 = _mm512_xor_si512(s1, s2);
  s0 = _mm512_xor_si512(s0, s3);
  s2 = _mm512_xor_si512(s2, t);
  s3 = _mm512_rol_epi64(s3, 45);
  return result;
}

/// Lemire multiply-shift for 8 draws (same 96-bit product decomposition
/// as lemire4 in kernel_avx2.cpp; bound < 2^32).
NB_TGT_AVX512 inline void lemire8(__m512i x, __m512i bound, __m512i& candidate, __m512i& low) {
  const __m512i lo_prod = _mm512_mul_epu32(x, bound);
  const __m512i hi_prod = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), bound);
  candidate = _mm512_srli_epi64(_mm512_add_epi64(hi_prod, _mm512_srli_epi64(lo_prod, 32)), 32);
  low = _mm512_add_epi64(_mm512_slli_epi64(hi_prod, 32), lo_prod);
}

/// Gathered snapshot loads + mask-register min-select for 8 balls: pick
/// i1 when snap[i1] < snap[i2], or on a tie when draw c's top bit is set.
NB_TGT_AVX512 inline __m256i select8(__m512i i1, __m512i i2, __m512i c,
                                     const std::uint8_t* snap) {
  const __m256i bmask = _mm256_set1_epi32(0xFF);
  const __m256i ga = _mm256_and_si256(
      _mm512_i64gather_epi32(i1, reinterpret_cast<const void*>(snap), 1), bmask);
  const __m256i gb = _mm256_and_si256(
      _mm512_i64gather_epi32(i2, reinterpret_cast<const void*>(snap), 1), bmask);
  const __mmask8 tie = _mm512_cmplt_epi64_mask(c, _mm512_setzero_si512());
  const __mmask8 pick =
      _mm256_cmplt_epu32_mask(ga, gb) | (_mm256_cmpeq_epi32_mask(ga, gb) & tie);
  return _mm256_mask_blend_epi32(pick, _mm512_cvtepi64_epi32(i2), _mm512_cvtepi64_epi32(i1));
}

NB_TGT_AVX512 void fill_avx512_impl(lane_soa& st, bin_count n, std::uint64_t threshold,
                                    const std::uint8_t* snap, std::uint32_t* chosen,
                                    std::size_t balls) {
  const auto bound64 = static_cast<std::uint64_t>(n);
  const __m512i bound = _mm512_set1_epi64(static_cast<long long>(bound64));
  const __m512i thr = _mm512_set1_epi64(static_cast<long long>(threshold));

  std::size_t t = 0;
  while (t + kernel_lanes <= balls) {  // full rounds only; the tail runs scalar
    __m512i s0 = _mm512_load_si512(st.s0.data());
    __m512i s1 = _mm512_load_si512(st.s1.data());
    __m512i s2 = _mm512_load_si512(st.s2.data());
    __m512i s3 = _mm512_load_si512(st.s3.data());
    const __m512i a = xo_step(s0, s1, s2, s3);
    const __m512i b = xo_step(s0, s1, s2, s3);
    const __m512i c = xo_step(s0, s1, s2, s3);
    _mm512_store_si512(st.s0.data(), s0);
    _mm512_store_si512(st.s1.data(), s1);
    _mm512_store_si512(st.s2.data(), s2);
    _mm512_store_si512(st.s3.data(), s3);

    __m512i i1;
    __m512i i2;
    __m512i low_a;
    __m512i low_b;
    lemire8(a, bound, i1, low_a);
    lemire8(b, bound, i2, low_b);
    const __mmask8 rej =
        _mm512_cmplt_epu64_mask(low_a, thr) | _mm512_cmplt_epu64_mask(low_b, thr);

    const __m256i ch = select8(i1, i2, c, snap);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(chosen + t), ch);

    if (rej != 0) [[unlikely]] {  // masked replay: rejected lanes only
      alignas(64) std::uint64_t qa[8];
      alignas(64) std::uint64_t qb[8];
      alignas(64) std::uint64_t qc[8];
      _mm512_store_si512(qa, a);
      _mm512_store_si512(qb, b);
      _mm512_store_si512(qc, c);
      for (std::size_t l = 0; l < kernel_lanes; ++l) {
        if (((rej >> l) & 1u) == 0) continue;
        const std::uint64_t queue[3] = {qa[l], qb[l], qc[l]};
        chosen[t + l] = replay_ball(st, l, bound64, threshold, snap, queue, 3);
      }
    }
    t += kernel_lanes;
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {  // trailing partial round
    chosen[t] = replay_ball(st, l, bound64, threshold, snap, nullptr, 0);
  }
}

/// One alias pick for 8 lanes: native 64-bit threshold gather
/// (vpgatherqq), a 32-bit alias gather widened back to 64-bit index
/// lanes, and an unsigned 64-bit mask compare for the keep test -- no
/// sign-flip tricks needed.
NB_TGT_AVX512 inline __m512i pick8(__m512i slot, __m512i u, const std::uint64_t* thresh,
                                   const bin_index* alias) {
  const __m512i th = _mm512_i64gather_epi64(slot, reinterpret_cast<const void*>(thresh), 8);
  const __m256i al32 = _mm512_i64gather_epi32(slot, reinterpret_cast<const void*>(alias), 4);
  const __mmask8 keep = _mm512_cmplt_epu64_mask(u, th);
  return _mm512_mask_blend_epi64(keep, _mm512_cvtepu32_epi64(al32), slot);
}

NB_TGT_AVX512 void fill_alias_avx512_impl(lane_soa& st, bin_count n, std::uint64_t threshold,
                                          const std::uint8_t* snap, const std::uint64_t* thresh,
                                          const bin_index* alias, std::uint32_t* chosen,
                                          std::size_t balls) {
  const auto bound64 = static_cast<std::uint64_t>(n);
  const __m512i bound = _mm512_set1_epi64(static_cast<long long>(bound64));
  const __m512i thr = _mm512_set1_epi64(static_cast<long long>(threshold));

  std::size_t t = 0;
  while (t + kernel_lanes <= balls) {
    __m512i s0 = _mm512_load_si512(st.s0.data());
    __m512i s1 = _mm512_load_si512(st.s1.data());
    __m512i s2 = _mm512_load_si512(st.s2.data());
    __m512i s3 = _mm512_load_si512(st.s3.data());
    const __m512i a = xo_step(s0, s1, s2, s3);   // slot 1
    const __m512i u1 = xo_step(s0, s1, s2, s3);  // keep/alias test 1
    const __m512i b = xo_step(s0, s1, s2, s3);   // slot 2
    const __m512i u2 = xo_step(s0, s1, s2, s3);  // keep/alias test 2
    const __m512i c = xo_step(s0, s1, s2, s3);   // tie bit
    _mm512_store_si512(st.s0.data(), s0);
    _mm512_store_si512(st.s1.data(), s1);
    _mm512_store_si512(st.s2.data(), s2);
    _mm512_store_si512(st.s3.data(), s3);

    __m512i sl1;
    __m512i sl2;
    __m512i low_a;
    __m512i low_b;
    lemire8(a, bound, sl1, low_a);
    lemire8(b, bound, sl2, low_b);
    const __mmask8 rej =
        _mm512_cmplt_epu64_mask(low_a, thr) | _mm512_cmplt_epu64_mask(low_b, thr);

    // Unconditional vector compute: even a rejected slot candidate is
    // < bound, so the table and snapshot gathers stay in-bounds.
    const __m512i i1 = pick8(sl1, u1, thresh, alias);
    const __m512i i2 = pick8(sl2, u2, thresh, alias);
    const __m256i ch = select8(i1, i2, c, snap);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(chosen + t), ch);

    if (rej != 0) [[unlikely]] {  // masked replay: rejected lanes only
      alignas(64) std::uint64_t q[5][8];
      _mm512_store_si512(q[0], a);
      _mm512_store_si512(q[1], u1);
      _mm512_store_si512(q[2], b);
      _mm512_store_si512(q[3], u2);
      _mm512_store_si512(q[4], c);
      for (std::size_t l = 0; l < kernel_lanes; ++l) {
        if (((rej >> l) & 1u) == 0) continue;
        const std::uint64_t queue[5] = {q[0][l], q[1][l], q[2][l], q[3][l], q[4][l]};
        chosen[t + l] = replay_ball_alias(st, l, bound64, threshold, snap, thresh, alias, queue, 5);
      }
    }
    t += kernel_lanes;
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {
    chosen[t] = replay_ball_alias(st, l, bound64, threshold, snap, thresh, alias, nullptr, 0);
  }
}

}  // namespace

void fill_avx512(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                 std::uint32_t* chosen, std::size_t balls) {
  fill_avx512_impl(st, n, threshold, snap, chosen, balls);
}

void fill_alias_avx512(lane_soa& st, bin_count n, std::uint64_t threshold,
                       const std::uint8_t* snap, const std::uint64_t* thresh,
                       const bin_index* alias, std::uint32_t* chosen, std::size_t balls) {
  fill_alias_avx512_impl(st, n, threshold, snap, thresh, alias, chosen, balls);
}

}  // namespace nb::kernel_detail

#endif  // x86
