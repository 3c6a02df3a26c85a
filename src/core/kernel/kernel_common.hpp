// Internal machinery shared by the allocation-kernel backends.  Not part
// of the public API -- include core/kernel/kernel.hpp instead.
//
// The scalar pieces here (lane state stepping, the queue-replay ball) are
// the single source of truth for the kernel's sampling semantics: vector
// backends generate raw draws in bulk and fall back to replay_ball for
// remainder lanes, partial rounds and the (astronomically rare, ~2^-32
// per sample) Lemire rejections, so every backend consumes each lane's
// stream in exactly the reference order.
#pragma once

#include <array>
#include <cstdint>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/kernel/kernel.hpp"
#include "rng/rng.hpp"

namespace nb::kernel_detail {

/// Structure-of-arrays state of the kernel's xoshiro256++ lanes: word w of
/// lane l sits at sW[l], so a vector backend loads W consecutive lanes'
/// states with one aligned vector load per word.  Lane l's stream is
/// bit-identical to nb::xoshiro256pp(derive_seed(seed, l)).
struct lane_soa {
  std::size_t lanes = 0;
  alignas(64) std::array<std::uint64_t, kernel_max_lanes> s0{};
  alignas(64) std::array<std::uint64_t, kernel_max_lanes> s1{};
  alignas(64) std::array<std::uint64_t, kernel_max_lanes> s2{};
  alignas(64) std::array<std::uint64_t, kernel_max_lanes> s3{};

  void init(std::size_t lane_count, std::uint64_t seed) noexcept {
    NB_ASSERT(lane_count >= 1 && lane_count <= kernel_max_lanes);
    lanes = lane_count;
    for (std::size_t l = 0; l < lanes; ++l) {
      // Same state expansion as xoshiro256pp::reseed.
      splitmix64 sm(derive_seed(seed, l));
      s0[l] = sm.next();
      s1[l] = sm.next();
      s2[l] = sm.next();
      s3[l] = sm.next();
    }
  }

  /// One scalar step of lane l -- the same update as xoshiro256pp::next.
  std::uint64_t next(std::size_t l) noexcept {
    const std::uint64_t result = detail::rotl64(s0[l] + s3[l], 23) + s0[l];
    const std::uint64_t t = s1[l] << 17;
    s2[l] ^= s0[l];
    s3[l] ^= s1[l];
    s1[l] ^= s2[l];
    s0[l] ^= s3[l];
    s2[l] ^= t;
    s3[l] = detail::rotl64(s3[l], 45);
    return result;
  }
};

/// Lemire rejection threshold for `bound`, hoisted once per kernel run.
[[nodiscard]] inline std::uint64_t lemire_threshold(std::uint64_t bound) noexcept {
  return (0 - bound) % bound;
}

/// The canonical two-sample decision: less loaded of the two snapshot
/// offsets, ties broken by the top bit of c (set -> i1).
[[nodiscard]] inline std::uint32_t decide(std::uint8_t a, std::uint8_t b, std::uint64_t c,
                                          std::uint32_t i1, std::uint32_t i2) noexcept {
  const bool pick_first = (a < b) | ((a == b) & ((c >> 63) != 0));
  return pick_first ? i1 : i2;
}

/// Composite scalar draw stream of one lane: consumes `queue` first (raw
/// draws a vector backend already generated), then the lane's live stream,
/// which by construction sits exactly after the queued draws.  The cursor
/// persists across calls, so one stream can replay SEVERAL consecutive
/// balls of its lane against a single pre-drawn queue -- what the AVX-512
/// backend's two-rounds-per-iteration loop needs when a rejection fires
/// after both rounds' draws were already taken.
struct ball_stream {
  lane_soa& st;
  std::size_t lane;
  const std::uint64_t* queue;
  int queued;
  int qi = 0;

  [[nodiscard]] std::uint64_t draw() noexcept {
    return qi < queued ? queue[qi++] : st.next(lane);
  }
  [[nodiscard]] std::uint32_t draw_bounded(std::uint64_t bound, std::uint64_t threshold) noexcept {
    for (;;) {
      const std::uint64_t x = draw();
      const auto m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      if (static_cast<std::uint64_t>(m) >= threshold) return static_cast<std::uint32_t>(m >> 64);
    }
  }
};

/// One ball decided scalar from `stream` (queue first, then live draws) --
/// the single source of truth for the uniform per-ball draw order:
/// bounded(i1), bounded(i2), one raw tie draw.
[[nodiscard]] inline std::uint32_t stream_ball(ball_stream& stream, std::uint64_t bound,
                                               std::uint64_t threshold,
                                               const std::uint8_t* snap) noexcept {
  const std::uint32_t i1 = stream.draw_bounded(bound, threshold);
  const std::uint32_t i2 = stream.draw_bounded(bound, threshold);
  const std::uint64_t c = stream.draw();
  return decide(snap[i1], snap[i2], c, i1, i2);
}

/// One ball of lane l, decided scalar: raw draws come first from `queue`
/// (draws a vector backend already generated for this ball), then live
/// from the lane.  With an accept-first queue of {a, b, c} this consumes
/// exactly the three queued values -- identical to the vector fast path --
/// and on rejection it transparently continues on the lane's live stream.
[[nodiscard]] inline std::uint32_t replay_ball(lane_soa& st, std::size_t l, std::uint64_t bound,
                                               std::uint64_t threshold, const std::uint8_t* snap,
                                               const std::uint64_t* queue, int queued) noexcept {
  ball_stream stream{st, l, queue, queued};
  return stream_ball(stream, bound, threshold, snap);
}

/// A backend fills chosen[0..balls) with the decided bin per ball, in ball
/// order, continuing the lane rotation from lane 0 (the driver only cuts
/// blocks at multiples of the lane count, so rotation stays aligned).
using fill_fn = void (*)(lane_soa& st, bin_count n, std::uint64_t threshold,
                         const std::uint8_t* snap, std::uint32_t* chosen, std::size_t balls);

void fill_scalar(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                 std::uint32_t* chosen, std::size_t balls);
#if defined(__x86_64__) || defined(__i386__)
void fill_avx2(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
               std::uint32_t* chosen, std::size_t balls);
void fill_avx512(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                 std::uint32_t* chosen, std::size_t balls);
#endif
#if defined(__aarch64__)
void fill_neon(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
               std::uint32_t* chosen, std::size_t balls);
#endif

// ---------------------------------------------------------------------------
// Alias-sampled lane path (non-uniform bin probabilities).
//
// Same lane contract as the uniform path, but each bin index is one alias
// draw instead of one Lemire draw.  Per ball, lane l consumes, in order:
//
//   1. one-or-more raw u64 draws for alias slot s1 (Lemire over [n)),
//   2. exactly one raw u64 u1; bin i1 = u1 < thresh[s1] ? s1 : alias[s1],
//   3. the same two-draw pattern for i2,
//   4. exactly one raw u64 c for the tie bit.
//
// The decision over the snapshot is unchanged (canonical min rule).  The
// scalar pieces below define the order; vector backends bulk-generate the
// five draws and fall back to the queue replay for rejections, remainder
// lanes and partial rounds, exactly like the uniform path.

/// One alias pick: keep the slot iff u clears its 64-bit fixed-point
/// threshold, else take its alias (the exact expression every backend and
/// the serial alias_table::sample share).
[[nodiscard]] inline std::uint32_t alias_pick(const std::uint64_t* thresh,
                                              const bin_index* alias, std::uint32_t slot,
                                              std::uint64_t u) noexcept {
  return u < thresh[slot] ? slot : alias[slot];
}

/// One alias-sampled ball decided scalar from `stream` -- the single
/// source of truth for the alias per-ball draw order: bounded(s1), u1,
/// bounded(s2), u2, one raw tie draw.
[[nodiscard]] inline std::uint32_t stream_ball_alias(ball_stream& stream, std::uint64_t bound,
                                                     std::uint64_t threshold,
                                                     const std::uint8_t* snap,
                                                     const std::uint64_t* thresh,
                                                     const bin_index* alias) noexcept {
  const std::uint32_t s1 = stream.draw_bounded(bound, threshold);
  const std::uint32_t i1 = alias_pick(thresh, alias, s1, stream.draw());
  const std::uint32_t s2 = stream.draw_bounded(bound, threshold);
  const std::uint32_t i2 = alias_pick(thresh, alias, s2, stream.draw());
  const std::uint64_t c = stream.draw();
  return decide(snap[i1], snap[i2], c, i1, i2);
}

/// One alias-sampled ball of lane l, decided scalar; `queue` semantics as
/// in replay_ball (an accept-first queue of {s1, u1, s2, u2, c} consumes
/// exactly the five queued values -- the vector fast path -- and spills to
/// the lane's live stream on rejection).
[[nodiscard]] inline std::uint32_t replay_ball_alias(
    lane_soa& st, std::size_t l, std::uint64_t bound, std::uint64_t threshold,
    const std::uint8_t* snap, const std::uint64_t* thresh, const bin_index* alias,
    const std::uint64_t* queue, int queued) noexcept {
  ball_stream stream{st, l, queue, queued};
  return stream_ball_alias(stream, bound, threshold, snap, thresh, alias);
}

using fill_alias_fn = void (*)(lane_soa& st, bin_count n, std::uint64_t threshold,
                               const std::uint8_t* snap, const std::uint64_t* thresh,
                               const bin_index* alias, std::uint32_t* chosen, std::size_t balls);

void fill_alias_scalar(lane_soa& st, bin_count n, std::uint64_t threshold,
                       const std::uint8_t* snap, const std::uint64_t* thresh,
                       const bin_index* alias, std::uint32_t* chosen, std::size_t balls);
#if defined(__x86_64__) || defined(__i386__)
void fill_alias_avx2(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                     const std::uint64_t* thresh, const bin_index* alias, std::uint32_t* chosen,
                     std::size_t balls);
void fill_alias_avx512(lane_soa& st, bin_count n, std::uint64_t threshold,
                       const std::uint8_t* snap, const std::uint64_t* thresh,
                       const bin_index* alias, std::uint32_t* chosen, std::size_t balls);
#endif
#if defined(__aarch64__)
void fill_alias_neon(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                     const std::uint64_t* thresh, const bin_index* alias, std::uint32_t* chosen,
                     std::size_t balls);
#endif

// ---------------------------------------------------------------------------
// Bounded-pair lane path (the departure kernel's draw generator).
//
// The departure channels consume *pairs* of bounded draws per event
// attempt.  Drain needs (bounded(n), bounded(n), tie), which IS the
// uniform fill_* shape over a byte-inverted snapshot, so it reuses those
// backends verbatim.  The random channel needs (bounded(n), bounded(B))
// per rejection-sampling attempt -- a bin index plus an acceptance draw
// against the frozen load bound B -- with no snapshot gather and no tie
// draw; the pair fill below is that generic vector piece.  Per attempt,
// lane l consumes one-or-more raw u64 for the bounded(b1) draw, then the
// same for bounded(b2).  The scalar reference defines the order; vector
// backends bulk-generate both draws and queue-replay Lemire rejections
// exactly like the uniform fill.  Both bounds must be < 2^32.

/// One bounded pair of lane l decided scalar (queue semantics as in
/// replay_ball: an accept-first queue of {a, b} consumes exactly the two
/// queued values and spills to the lane's live stream on rejection).
inline void replay_pair(lane_soa& st, std::size_t l, std::uint64_t b1, std::uint64_t t1,
                        std::uint64_t b2, std::uint64_t t2, const std::uint64_t* queue,
                        int queued, std::uint32_t& o1, std::uint32_t& o2) noexcept {
  ball_stream stream{st, l, queue, queued};
  o1 = stream.draw_bounded(b1, t1);
  o2 = stream.draw_bounded(b2, t2);
}

/// A backend fills out1[t] = bounded(b1), out2[t] = bounded(b2) for every
/// attempt t in ball order, continuing the lane rotation from lane 0 (the
/// driver cuts blocks at multiples of the lane count).  t1/t2 are the
/// hoisted Lemire thresholds of b1/b2.
using fill_pair_fn = void (*)(lane_soa& st, std::uint64_t b1, std::uint64_t t1, std::uint64_t b2,
                              std::uint64_t t2, std::uint32_t* out1, std::uint32_t* out2,
                              std::size_t count);

void fill_pair_scalar(lane_soa& st, std::uint64_t b1, std::uint64_t t1, std::uint64_t b2,
                      std::uint64_t t2, std::uint32_t* out1, std::uint32_t* out2,
                      std::size_t count);
#if defined(__x86_64__) || defined(__i386__)
void fill_pair_avx2(lane_soa& st, std::uint64_t b1, std::uint64_t t1, std::uint64_t b2,
                    std::uint64_t t2, std::uint32_t* out1, std::uint32_t* out2,
                    std::size_t count);
void fill_pair_avx512(lane_soa& st, std::uint64_t b1, std::uint64_t t1, std::uint64_t b2,
                      std::uint64_t t2, std::uint32_t* out1, std::uint32_t* out2,
                      std::size_t count);
#endif
// No NEON pair fill: the path is pure ALU (no gathers to win back) and the
// build host cannot execute aarch64 code to validate one; dispatch routes
// aarch64 to the scalar reference, which is bit-identical by contract.

}  // namespace nb::kernel_detail
