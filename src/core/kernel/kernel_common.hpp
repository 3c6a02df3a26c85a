// Internal machinery shared by the allocation-kernel backends.  Not part
// of the public API -- include core/kernel/kernel.hpp instead.
//
// The scalar pieces here (lane state stepping, the queue-replay ball) are
// the single source of truth for the kernel's sampling semantics: vector
// backends generate raw draws in bulk and fall back to replay_ball for
// the trailing partial round and the (astronomically rare, ~2^-32 per
// sample) Lemire rejections, so every backend consumes each lane's
// stream in exactly the reference order.  The backend table at the end
// (backend_for) is the kernel's only ISA dispatch: kernel.cpp takes its
// fills from it.  There are two fill shapes, uniform and alias; the
// windowed engine's drain blocks run the uniform one (kernel_run) over a
// byte-inverted snapshot, so departures add no fill of their own.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "core/kernel/kernel.hpp"
#include "rng/rng.hpp"

namespace nb::kernel_detail {

/// Structure-of-arrays state of the kernel's kernel_lanes xoshiro256++
/// lanes: word w of lane l sits at sW[l], so a vector backend loads
/// consecutive lanes' states with one aligned vector load per word.  Lane
/// l's stream is bit-identical to nb::xoshiro256pp(derive_seed(seed, l)).
struct lane_soa {
  alignas(64) std::array<std::uint64_t, kernel_lanes> s0{};
  alignas(64) std::array<std::uint64_t, kernel_lanes> s1{};
  alignas(64) std::array<std::uint64_t, kernel_lanes> s2{};
  alignas(64) std::array<std::uint64_t, kernel_lanes> s3{};

  void init(std::uint64_t seed) noexcept {
    for (std::size_t l = 0; l < kernel_lanes; ++l) {
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
/// which by construction sits exactly after the queued draws.
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

/// One ball of lane l, decided scalar -- the single source of truth for
/// the uniform per-ball draw order: bounded(i1), bounded(i2), one raw tie
/// draw.  Raw draws come first from `queue` (draws a vector backend
/// already generated for this ball), then live from the lane.  With an
/// accept-first queue of {a, b, c} this consumes exactly the three queued
/// values -- identical to the vector fast path -- and on rejection it
/// transparently continues on the lane's live stream.
[[nodiscard]] inline std::uint32_t replay_ball(lane_soa& st, std::size_t l, std::uint64_t bound,
                                               std::uint64_t threshold, const std::uint8_t* snap,
                                               const std::uint64_t* queue, int queued) noexcept {
  ball_stream stream{st, l, queue, queued};
  const std::uint32_t i1 = stream.draw_bounded(bound, threshold);
  const std::uint32_t i2 = stream.draw_bounded(bound, threshold);
  const std::uint64_t c = stream.draw();
  return decide(snap[i1], snap[i2], c, i1, i2);
}

/// A backend fills chosen[0..balls) with the decided bin per ball, in ball
/// order, continuing the lane rotation from lane 0 (the driver only cuts
/// blocks at multiples of kernel_lanes, so rotation stays aligned).
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
// five draws and fall back to the queue replay for rejections and the
// trailing partial round, exactly like the uniform path.

/// One alias pick: keep the slot iff u clears its 64-bit fixed-point
/// threshold, else take its alias (the exact expression every backend and
/// the serial alias_table::sample share).
[[nodiscard]] inline std::uint32_t alias_pick(const std::uint64_t* thresh,
                                              const bin_index* alias, std::uint32_t slot,
                                              std::uint64_t u) noexcept {
  return u < thresh[slot] ? slot : alias[slot];
}

/// One alias-sampled ball of lane l, decided scalar -- the single source
/// of truth for the alias per-ball draw order: bounded(s1), u1,
/// bounded(s2), u2, one raw tie draw.  `queue` semantics as in
/// replay_ball (an accept-first queue of {s1, u1, s2, u2, c} consumes
/// exactly the five queued values -- the vector fast path -- and spills to
/// the lane's live stream on rejection).
[[nodiscard]] inline std::uint32_t replay_ball_alias(
    lane_soa& st, std::size_t l, std::uint64_t bound, std::uint64_t threshold,
    const std::uint8_t* snap, const std::uint64_t* thresh, const bin_index* alias,
    const std::uint64_t* queue, int queued) noexcept {
  ball_stream stream{st, l, queue, queued};
  const std::uint32_t s1 = stream.draw_bounded(bound, threshold);
  const std::uint32_t i1 = alias_pick(thresh, alias, s1, stream.draw());
  const std::uint32_t s2 = stream.draw_bounded(bound, threshold);
  const std::uint32_t i2 = alias_pick(thresh, alias, s2, stream.draw());
  const std::uint64_t c = stream.draw();
  return decide(snap[i1], snap[i2], c, i1, i2);
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

// ---------------------------------------------------------------------------
// Dispatch: the one place that decides which ISA runs which fill.

/// Balls per block, the chosen-bin buffer's capacity: 32 KiB, L1-resident
/// alongside the lane state, and a multiple of kernel_lanes, so every
/// backend sees an aligned rotation.
inline constexpr std::size_t kBlockBalls = 8192;
static_assert(kBlockBalls % kernel_lanes == 0);

/// Every fill one backend runs.
struct backend {
  fill_fn fill;
  fill_alias_fn fill_alias;
};

/// The backend table: resolves `isa` (resolve_kernel_isa) and returns its
/// fills.
[[nodiscard]] inline backend backend_for(kernel_isa isa) noexcept {
  switch (resolve_kernel_isa(isa)) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return {fill_avx2, fill_alias_avx2};
    case kernel_isa::avx512:
      return {fill_avx512, fill_alias_avx512};
#endif
    default:
      return {fill_scalar, fill_alias_scalar};
  }
}

/// Backends a CPU can execute, as a bit set over kernel_isa values.
using isa_set = unsigned;

[[nodiscard]] constexpr isa_set isa_bit(kernel_isa isa) noexcept {
  return 1u << static_cast<unsigned>(isa);
}

/// The running CPU's set: scalar always, avx2 with AVX2, and avx512 with
/// AVX2 plus AVX-512 F/DQ/BW/VL.
[[nodiscard]] isa_set cpu_isa_set() noexcept;

/// resolve_kernel_isa's rule over an explicit `supported` set (which must
/// contain scalar): auto_detect maps to the best backend in the set
/// (avx512, then avx2, then scalar), a supported request to itself, and an
/// unsupported one to the best backend with a one-shot warn_once
/// diagnostic (key "kernel-isa-fallback:<name>").  resolve_kernel_isa
/// passes cpu_isa_set().
[[nodiscard]] kernel_isa resolve_isa_in(kernel_isa requested, isa_set supported) noexcept;

}  // namespace nb::kernel_detail
