// AVX-512 backend of the allocation kernel: 8 lanes per 512-bit vector.
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
// The uniform path draws and decides TWO lane rounds per loop iteration,
// issuing both rounds' snapshot gathers back to back so their cache
// misses overlap in flight; a rejection in either round replays both of
// the affected lane's balls through one shared 6-draw queue (ball_stream
// keeps the cursor across the two balls).  A trailing odd round runs
// alone.  Execution-only by construction -- the drawn values and the
// decisions are those of one round at a time.
//
// Compiled with per-function target attributes so the rest of the build
// stays portable; dispatch requires avx512f+dq+bw+vl (Skylake-SP+).
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
  const std::size_t lanes = st.lanes;
  const std::size_t vec_lanes = lanes - lanes % 8;  // lanes handled 8 at a time
  const auto bound64 = static_cast<std::uint64_t>(n);
  const __m512i bound = _mm512_set1_epi64(static_cast<long long>(bound64));
  const __m512i thr = _mm512_set1_epi64(static_cast<long long>(threshold));

  std::size_t t = 0;
  while (t + 2 * lanes <= balls) {  // two full rounds per iteration
    for (std::size_t lane0 = 0; lane0 < vec_lanes; lane0 += 8) {
      __m512i s0 = _mm512_load_si512(st.s0.data() + lane0);
      __m512i s1 = _mm512_load_si512(st.s1.data() + lane0);
      __m512i s2 = _mm512_load_si512(st.s2.data() + lane0);
      __m512i s3 = _mm512_load_si512(st.s3.data() + lane0);
      const __m512i a1 = xo_step(s0, s1, s2, s3);
      const __m512i b1 = xo_step(s0, s1, s2, s3);
      const __m512i c1 = xo_step(s0, s1, s2, s3);
      const __m512i a2 = xo_step(s0, s1, s2, s3);
      const __m512i b2 = xo_step(s0, s1, s2, s3);
      const __m512i c2 = xo_step(s0, s1, s2, s3);
      _mm512_store_si512(st.s0.data() + lane0, s0);
      _mm512_store_si512(st.s1.data() + lane0, s1);
      _mm512_store_si512(st.s2.data() + lane0, s2);
      _mm512_store_si512(st.s3.data() + lane0, s3);

      __m512i j1;
      __m512i j2;
      __m512i k1;
      __m512i k2;
      __m512i lj1;
      __m512i lj2;
      __m512i lk1;
      __m512i lk2;
      lemire8(a1, bound, j1, lj1);
      lemire8(b1, bound, j2, lj2);
      lemire8(a2, bound, k1, lk1);
      lemire8(b2, bound, k2, lk2);
      const __mmask8 rej =
          _mm512_cmplt_epu64_mask(lj1, thr) | _mm512_cmplt_epu64_mask(lj2, thr) |
          _mm512_cmplt_epu64_mask(lk1, thr) | _mm512_cmplt_epu64_mask(lk2, thr);

      // Both rounds' gathers issued back to back: four independent
      // vpgatherqd whose misses overlap -- the interleave payoff.
      const __m256i ch1 = select8(j1, j2, c1, snap);
      const __m256i ch2 = select8(k1, k2, c2, snap);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(chosen + t + lane0), ch1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(chosen + t + lanes + lane0), ch2);

      if (rej != 0) [[unlikely]] {
        alignas(64) std::uint64_t q[6][8];
        _mm512_store_si512(q[0], a1);
        _mm512_store_si512(q[1], b1);
        _mm512_store_si512(q[2], c1);
        _mm512_store_si512(q[3], a2);
        _mm512_store_si512(q[4], b2);
        _mm512_store_si512(q[5], c2);
        for (std::size_t l = 0; l < 8; ++l) {
          if (((rej >> l) & 1u) == 0) continue;
          // Both of this lane's balls replay against ONE shared queue:
          // the cursor persists, so a rejection in ball 1 shifts ball
          // 2's draws exactly as the reference stream does.
          const std::uint64_t queue[6] = {q[0][l], q[1][l], q[2][l],
                                          q[3][l], q[4][l], q[5][l]};
          ball_stream stream{st, lane0 + l, queue, 6};
          chosen[t + lane0 + l] = stream_ball(stream, bound64, threshold, snap);
          chosen[t + lanes + lane0 + l] = stream_ball(stream, bound64, threshold, snap);
        }
      }
    }
    for (std::size_t l = vec_lanes; l < lanes; ++l) {  // remainder lanes
      chosen[t + l] = replay_ball(st, l, bound64, threshold, snap, nullptr, 0);
      chosen[t + lanes + l] = replay_ball(st, l, bound64, threshold, snap, nullptr, 0);
    }
    t += 2 * lanes;
  }
  if (t + lanes <= balls) {  // a trailing single full round
    for (std::size_t lane0 = 0; lane0 < vec_lanes; lane0 += 8) {
      __m512i s0 = _mm512_load_si512(st.s0.data() + lane0);
      __m512i s1 = _mm512_load_si512(st.s1.data() + lane0);
      __m512i s2 = _mm512_load_si512(st.s2.data() + lane0);
      __m512i s3 = _mm512_load_si512(st.s3.data() + lane0);
      const __m512i a = xo_step(s0, s1, s2, s3);
      const __m512i b = xo_step(s0, s1, s2, s3);
      const __m512i c = xo_step(s0, s1, s2, s3);
      _mm512_store_si512(st.s0.data() + lane0, s0);
      _mm512_store_si512(st.s1.data() + lane0, s1);
      _mm512_store_si512(st.s2.data() + lane0, s2);
      _mm512_store_si512(st.s3.data() + lane0, s3);

      __m512i i1;
      __m512i i2;
      __m512i low_a;
      __m512i low_b;
      lemire8(a, bound, i1, low_a);
      lemire8(b, bound, i2, low_b);
      const __mmask8 rej =
          _mm512_cmplt_epu64_mask(low_a, thr) | _mm512_cmplt_epu64_mask(low_b, thr);

      const __m256i ch = select8(i1, i2, c, snap);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(chosen + t + lane0), ch);

      if (rej != 0) [[unlikely]] {  // masked replay: rejected lanes only
        alignas(64) std::uint64_t qa[8];
        alignas(64) std::uint64_t qb[8];
        alignas(64) std::uint64_t qc[8];
        _mm512_store_si512(qa, a);
        _mm512_store_si512(qb, b);
        _mm512_store_si512(qc, c);
        for (std::size_t l = 0; l < 8; ++l) {
          if (((rej >> l) & 1u) == 0) continue;
          const std::uint64_t queue[3] = {qa[l], qb[l], qc[l]};
          chosen[t + lane0 + l] = replay_ball(st, lane0 + l, bound64, threshold, snap, queue, 3);
        }
      }
    }
    for (std::size_t l = vec_lanes; l < lanes; ++l) {
      chosen[t + l] = replay_ball(st, l, bound64, threshold, snap, nullptr, 0);
    }
    t += lanes;
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {  // trailing partial round
    chosen[t] = replay_ball(st, l, bound64, threshold, snap, nullptr, 0);
  }
}

/// Bounded-pair fill for the departure kernel's random channel: two
/// xoshiro steps per 8-lane group, one Lemire multiply-shift against each
/// bound, EXACT unsigned rejection against both thresholds, and masked
/// per-lane replay over the unconditionally stored vector results (a
/// rejected candidate is still < its bound, so the stores are safe to
/// overwrite lane-by-lane).
NB_TGT_AVX512 void fill_pair_avx512_impl(lane_soa& st, std::uint64_t b1, std::uint64_t t1,
                                         std::uint64_t b2, std::uint64_t t2, std::uint32_t* out1,
                                         std::uint32_t* out2, std::size_t count) {
  const std::size_t lanes = st.lanes;
  const std::size_t vec_lanes = lanes - lanes % 8;
  const __m512i bound1 = _mm512_set1_epi64(static_cast<long long>(b1));
  const __m512i bound2 = _mm512_set1_epi64(static_cast<long long>(b2));
  const __m512i thr1 = _mm512_set1_epi64(static_cast<long long>(t1));
  const __m512i thr2 = _mm512_set1_epi64(static_cast<long long>(t2));

  std::size_t t = 0;
  while (t + lanes <= count) {
    for (std::size_t lane0 = 0; lane0 < vec_lanes; lane0 += 8) {
      __m512i s0 = _mm512_load_si512(st.s0.data() + lane0);
      __m512i s1 = _mm512_load_si512(st.s1.data() + lane0);
      __m512i s2 = _mm512_load_si512(st.s2.data() + lane0);
      __m512i s3 = _mm512_load_si512(st.s3.data() + lane0);
      const __m512i a = xo_step(s0, s1, s2, s3);
      const __m512i b = xo_step(s0, s1, s2, s3);
      _mm512_store_si512(st.s0.data() + lane0, s0);
      _mm512_store_si512(st.s1.data() + lane0, s1);
      _mm512_store_si512(st.s2.data() + lane0, s2);
      _mm512_store_si512(st.s3.data() + lane0, s3);

      __m512i i1;
      __m512i i2;
      __m512i low_a;
      __m512i low_b;
      lemire8(a, bound1, i1, low_a);
      lemire8(b, bound2, i2, low_b);
      const __mmask8 rej =
          _mm512_cmplt_epu64_mask(low_a, thr1) | _mm512_cmplt_epu64_mask(low_b, thr2);

      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out1 + t + lane0),
                          _mm512_cvtepi64_epi32(i1));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out2 + t + lane0),
                          _mm512_cvtepi64_epi32(i2));

      if (rej != 0) [[unlikely]] {  // masked replay: rejected lanes only
        alignas(64) std::uint64_t qa[8];
        alignas(64) std::uint64_t qb[8];
        _mm512_store_si512(qa, a);
        _mm512_store_si512(qb, b);
        for (std::size_t l = 0; l < 8; ++l) {
          if (((rej >> l) & 1u) == 0) continue;
          const std::uint64_t queue[2] = {qa[l], qb[l]};
          replay_pair(st, lane0 + l, b1, t1, b2, t2, queue, 2, out1[t + lane0 + l],
                      out2[t + lane0 + l]);
        }
      }
    }
    for (std::size_t l = vec_lanes; l < lanes; ++l) {
      replay_pair(st, l, b1, t1, b2, t2, nullptr, 0, out1[t + l], out2[t + l]);
    }
    t += lanes;
  }
  for (std::size_t l = 0; t < count; ++l, ++t) {
    replay_pair(st, l, b1, t1, b2, t2, nullptr, 0, out1[t], out2[t]);
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
  const std::size_t lanes = st.lanes;
  const std::size_t vec_lanes = lanes - lanes % 8;
  const auto bound64 = static_cast<std::uint64_t>(n);
  const __m512i bound = _mm512_set1_epi64(static_cast<long long>(bound64));
  const __m512i thr = _mm512_set1_epi64(static_cast<long long>(threshold));

  std::size_t t = 0;
  while (t + lanes <= balls) {
    for (std::size_t lane0 = 0; lane0 < vec_lanes; lane0 += 8) {
      __m512i s0 = _mm512_load_si512(st.s0.data() + lane0);
      __m512i s1 = _mm512_load_si512(st.s1.data() + lane0);
      __m512i s2 = _mm512_load_si512(st.s2.data() + lane0);
      __m512i s3 = _mm512_load_si512(st.s3.data() + lane0);
      const __m512i a = xo_step(s0, s1, s2, s3);   // slot 1
      const __m512i u1 = xo_step(s0, s1, s2, s3);  // keep/alias test 1
      const __m512i b = xo_step(s0, s1, s2, s3);   // slot 2
      const __m512i u2 = xo_step(s0, s1, s2, s3);  // keep/alias test 2
      const __m512i c = xo_step(s0, s1, s2, s3);   // tie bit
      _mm512_store_si512(st.s0.data() + lane0, s0);
      _mm512_store_si512(st.s1.data() + lane0, s1);
      _mm512_store_si512(st.s2.data() + lane0, s2);
      _mm512_store_si512(st.s3.data() + lane0, s3);

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
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(chosen + t + lane0), ch);

      if (rej != 0) [[unlikely]] {  // masked replay: rejected lanes only
        alignas(64) std::uint64_t q[5][8];
        _mm512_store_si512(q[0], a);
        _mm512_store_si512(q[1], u1);
        _mm512_store_si512(q[2], b);
        _mm512_store_si512(q[3], u2);
        _mm512_store_si512(q[4], c);
        for (std::size_t l = 0; l < 8; ++l) {
          if (((rej >> l) & 1u) == 0) continue;
          const std::uint64_t queue[5] = {q[0][l], q[1][l], q[2][l], q[3][l], q[4][l]};
          chosen[t + lane0 + l] =
              replay_ball_alias(st, lane0 + l, bound64, threshold, snap, thresh, alias, queue, 5);
        }
      }
    }
    for (std::size_t l = vec_lanes; l < lanes; ++l) {
      chosen[t + l] = replay_ball_alias(st, l, bound64, threshold, snap, thresh, alias, nullptr, 0);
    }
    t += lanes;
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

void fill_pair_avx512(lane_soa& st, std::uint64_t b1, std::uint64_t t1, std::uint64_t b2,
                      std::uint64_t t2, std::uint32_t* out1, std::uint32_t* out2,
                      std::size_t count) {
  fill_pair_avx512_impl(st, b1, t1, b2, t2, out1, out2, count);
}

void fill_alias_avx512(lane_soa& st, bin_count n, std::uint64_t threshold,
                       const std::uint8_t* snap, const std::uint64_t* thresh,
                       const bin_index* alias, std::uint32_t* chosen, std::size_t balls) {
  fill_alias_avx512_impl(st, n, threshold, snap, thresh, alias, chosen, balls);
}

}  // namespace nb::kernel_detail

#endif  // x86
