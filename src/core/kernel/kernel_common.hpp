// Internal machinery shared by the allocation-kernel backends.  Not part
// of the public API -- include core/kernel/kernel.hpp instead.
//
// The scalar pieces here (lane state stepping, the bin draws, the
// queue-replay ball) are the single source of truth for the kernel's
// sampling semantics.  Uniform and alias sampling differ only in how a
// bin index is drawn, so that draw is a policy type (uniform_bins,
// alias_bins) and each backend has one fill template over it.  Vector
// backends generate raw draws in bulk and fall back to replay_ball for
// the trailing partial round and the (astronomically rare, ~2^-32 per
// sample) Lemire rejections, so every backend consumes each lane's
// stream in exactly the reference order.  fill_for, at the end, is the
// kernel's only ISA dispatch.  The windowed engine's drain blocks run the
// uniform fill (kernel_run) over a byte-inverted snapshot, so departures
// add no fill of their own.
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

/// Uniform bin draws: each bin index is one Lemire-bounded draw over [n).
/// A ball draws bounded(i1), bounded(i2), one raw tie draw: `draws` raw
/// values when neither bounded draw rejects.
struct uniform_bins {
  static constexpr int draws = 3;

  [[nodiscard]] std::uint32_t draw(ball_stream& stream, std::uint64_t bound,
                                   std::uint64_t threshold) const noexcept {
    return stream.draw_bounded(bound, threshold);
  }
};

/// Alias bin draws (non-uniform bin probabilities): each bin index is a
/// Lemire-bounded alias slot s, then exactly one raw keep draw u; the bin
/// is s when u clears the slot's 64-bit fixed-point threshold, else its
/// alias (the expression the serial alias_table::sample shares).  A ball
/// draws bounded(s1), u1, bounded(s2), u2, one raw tie draw.
struct alias_bins {
  static constexpr int draws = 5;
  const std::uint64_t* thresh;
  const bin_index* alias;

  [[nodiscard]] std::uint32_t draw(ball_stream& stream, std::uint64_t bound,
                                   std::uint64_t threshold) const noexcept {
    const std::uint32_t slot = stream.draw_bounded(bound, threshold);
    return stream.draw() < thresh[slot] ? slot : alias[slot];
  }
};

/// One ball of lane l, decided scalar -- the single source of truth for
/// the per-ball draw order: bin i1, bin i2 (each drawn by `bins`), one
/// raw tie draw.  Raw draws come first from `queue` (draws a vector
/// backend already generated for this ball), then live from the lane.
/// With an accept-first queue of Bins::draws values this consumes exactly
/// the queued values -- identical to the vector fast path -- and on
/// rejection it transparently continues on the lane's live stream.
template <typename Bins>
[[nodiscard]] std::uint32_t replay_ball(lane_soa& st, std::size_t l, std::uint64_t bound,
                                        std::uint64_t threshold, const std::uint8_t* snap,
                                        const Bins& bins, const std::uint64_t* queue,
                                        int queued) noexcept {
  ball_stream stream{st, l, queue, queued};
  const std::uint32_t i1 = bins.draw(stream, bound, threshold);
  const std::uint32_t i2 = bins.draw(stream, bound, threshold);
  const std::uint64_t c = stream.draw();
  return decide(snap[i1], snap[i2], c, i1, i2);
}

/// A backend fills chosen[0..balls) with the decided bin per ball, in ball
/// order, continuing the lane rotation from lane 0 (the driver only cuts
/// blocks at multiples of kernel_lanes, so rotation stays aligned).  Each
/// backend defines one fill template, instantiated for both bin draws.
template <typename Bins>
using fill_fn = void (*)(lane_soa& st, bin_count n, std::uint64_t threshold,
                         const std::uint8_t* snap, Bins bins, std::uint32_t* chosen,
                         std::size_t balls);

template <typename Bins>
void fill_scalar(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                 Bins bins, std::uint32_t* chosen, std::size_t balls);
#if defined(__x86_64__) || defined(__i386__)
// The vector fills carry their target on every declaration, so the
// backend files compile their intrinsics without raising the whole
// build's ISA.
#define NB_TGT_AVX2 __attribute__((target("avx2")))
#define NB_TGT_AVX512 __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))
template <typename Bins>
NB_TGT_AVX2 void fill_avx2(lane_soa& st, bin_count n, std::uint64_t threshold,
                           const std::uint8_t* snap, Bins bins, std::uint32_t* chosen,
                           std::size_t balls);
template <typename Bins>
NB_TGT_AVX512 void fill_avx512(lane_soa& st, bin_count n, std::uint64_t threshold,
                               const std::uint8_t* snap, Bins bins, std::uint32_t* chosen,
                               std::size_t balls);
#endif

// ---------------------------------------------------------------------------
// Dispatch: the one place that decides which ISA runs which fill.

/// Balls per block, the chosen-bin buffer's capacity: 32 KiB, L1-resident
/// alongside the lane state, and a multiple of kernel_lanes, so every
/// backend sees an aligned rotation.
inline constexpr std::size_t kBlockBalls = 8192;
static_assert(kBlockBalls % kernel_lanes == 0);

/// The kernel's only ISA dispatch: resolves `isa` (resolve_kernel_isa)
/// and returns its fill for the `Bins` draw.
template <typename Bins>
[[nodiscard]] fill_fn<Bins> fill_for(kernel_isa isa) noexcept {
  switch (resolve_kernel_isa(isa)) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return fill_avx2<Bins>;
    case kernel_isa::avx512:
      return fill_avx512<Bins>;
#endif
    default:
      return fill_scalar<Bins>;
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
