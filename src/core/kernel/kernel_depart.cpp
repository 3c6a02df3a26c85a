// Block driver of the departure kernel (see kernel_depart.hpp for the
// channel laws and the sampling contract).
//
// The driver owns everything backend-independent, mirroring kernel.cpp:
// lane-state setup, threshold hoists, cutting the run into L1-resident
// blocks at lane-count multiples, and folding decided events into the
// caller's departure-count row.  The fold is also where departures differ
// from arrivals: counts must never overdraw a bin, so the drain fold
// checks the chosen bin's remaining load per event (replaying drained-dry
// picks on a dedicated scalar stream) and the random fold folds the
// capacity check into the acceptance test itself.
#include "core/kernel/kernel_depart.hpp"

#include <string>

#include "core/kernel/kernel_common.hpp"

namespace nb {
namespace {

/// Same L1-resident block capacity as the allocation driver.
constexpr std::size_t kBlockBalls = 8192;
static_assert(kBlockBalls % kernel_max_lanes == 0);

/// Replay attempts before the drain fold falls back to the deterministic
/// fullest-bin scan.  Generous: a redraw only fails while nearly every
/// sampled pair is drained dry, so hitting the cap at all means the block
/// is retiring a large fraction of the snapshot's total load.
constexpr int kDrainReplayAttempts = 4096;

kernel_detail::fill_fn pick_fill(kernel_isa resolved) noexcept {
  switch (resolved) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return kernel_detail::fill_avx2;
    case kernel_isa::avx512:
      return kernel_detail::fill_avx512;
#endif
#if defined(__aarch64__)
    case kernel_isa::neon:
      return kernel_detail::fill_neon;
#endif
    default:
      return kernel_detail::fill_scalar;
  }
}

kernel_detail::fill_pair_fn pick_fill_pair(kernel_isa resolved) noexcept {
  switch (resolved) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return kernel_detail::fill_pair_avx2;
    case kernel_isa::avx512:
      return kernel_detail::fill_pair_avx512;
#endif
    // aarch64 deliberately lands on the scalar reference (see the note in
    // kernel_common.hpp) -- bit-identical by contract.
    default:
      return kernel_detail::fill_pair_scalar;
  }
}

/// Drain: fill backends decide "fuller of two snapshot samples" as the
/// canonical min-select over the caller's byte-inverted snapshot `inv`
/// (compact_snapshot::assign_inverted); the fold retires weight w per
/// event with a per-event remaining-capacity check.
template <typename Row>
void depart_drain(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* inv,
                  load_t snap_base, weight_t w, Row* rel, step_count k, std::uint64_t seed) {
  const kernel_detail::fill_fn fill = pick_fill(resolve_kernel_isa(isa));
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t threshold = kernel_detail::lemire_threshold(n);

  // Dedicated scalar stream for drained-dry picks: lane streams occupy
  // derive_seed(seed, 0..lanes-1), so the replay stream is the next one.
  xoshiro256pp replay(derive_seed(seed, lanes));

  // A bin's snapshot load is base + 255 - inv[c].
  const weight_t top = static_cast<weight_t>(snap_base) + 255;
  const auto remaining = [&](std::uint32_t c) noexcept -> weight_t {
    return top - inv[c] - static_cast<weight_t>(rel[c]) * w;
  };
  const auto replay_one = [&]() {
    for (int attempt = 0; attempt < kDrainReplayAttempts; ++attempt) {
      const auto i = static_cast<std::uint32_t>(bounded(replay, n));
      const auto j = static_cast<std::uint32_t>(bounded(replay, n));
      const weight_t ri = remaining(i);
      const weight_t rj = remaining(j);
      // Serial drain's eligibility and selection laws, over remaining load.
      if (ri < w && rj < w) continue;
      std::uint32_t c;
      if (ri != rj) {
        c = ri > rj ? i : j;
      } else {
        c = (replay.next() >> 63) != 0 ? i : j;
      }
      ++rel[c];
      return;
    }
    // Deterministic fallback: the fullest remaining bin, first index wins.
    std::uint32_t best = 0;
    weight_t best_rem = remaining(0);
    for (bin_count i = 1; i < n; ++i) {
      const weight_t r = remaining(i);
      if (r > best_rem) {
        best = i;
        best_rem = r;
      }
    }
    NB_REQUIRE(best_rem >= w, "drain departure block cannot retire weight " + std::to_string(w) +
                                  ": no bin's remaining load covers it");
    ++rel[best];
  };

  const std::size_t block = (kBlockBalls / lanes) * lanes;
  alignas(64) std::uint32_t chosen[kBlockBalls];
  while (k > 0) {
    const std::size_t count =
        k < static_cast<step_count>(block) ? static_cast<std::size_t>(k) : block;
    fill(state, n, threshold, inv, chosen, count);
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint32_t c = chosen[t];
      if (remaining(c) >= w) {
        ++rel[c];
      } else {
        replay_one();
      }
    }
    k -= static_cast<step_count>(count);
  }
}

/// Random: the pair fill bulk-generates (bin, acceptance) attempt pairs;
/// the fold serves an attempt iff its acceptance draw lands under the
/// bin's remaining load, until k departures are served.
template <typename Row>
void depart_random(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                   load_t snap_base, std::uint8_t snap_span, Row* rel, step_count k,
                   std::uint64_t seed) {
  // Frozen acceptance bound: the snapshot maximum.  load_t is 32-bit, so
  // base + span always fits the pair fill's < 2^32 bound contract.
  const std::uint64_t bound = static_cast<std::uint64_t>(snap_base) + snap_span;
  NB_REQUIRE(bound >= 1, "random departure kernel needs resident load in the snapshot");
  const kernel_detail::fill_pair_fn fill = pick_fill_pair(resolve_kernel_isa(isa));
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t thresh_n = kernel_detail::lemire_threshold(n);
  const std::uint64_t thresh_b = kernel_detail::lemire_threshold(bound);
  const std::size_t block = (kBlockBalls / lanes) * lanes;
  alignas(64) std::uint32_t idx[kBlockBalls];
  alignas(64) std::uint32_t acc[kBlockBalls];
  while (k > 0) {
    // Full fixed-size attempt blocks until k departures are served; the
    // final block's unused tail is discarded (declared draw order).
    fill(state, n, thresh_n, bound, thresh_b, idx, acc, block);
    for (std::size_t t = 0; t < block && k > 0; ++t) {
      const std::uint32_t j = idx[t];
      const weight_t rem =
          static_cast<weight_t>(snap_base) + snap[j] - static_cast<weight_t>(rel[j]);
      if (rem > 0 && static_cast<weight_t>(acc[t]) < rem) {
        ++rel[j];
        --k;
      }
    }
  }
}

template <typename Row>
void depart_impl(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                 const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                 weight_t weight_per_ball, Row* rel, step_count k, std::uint64_t seed) {
  NB_REQUIRE(lanes >= 1 && lanes <= kernel_max_lanes, "kernel lanes must be in [1, 64]");
  NB_REQUIRE(n >= 1, "kernel needs at least one bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  NB_ASSERT(k >= 0 && snap != nullptr && rel != nullptr);
  switch (channel) {
    case depart_channel::drain:
      depart_drain(isa, lanes, n, snap, snap_base, weight_per_ball, rel, k, seed);
      return;
    case depart_channel::random:
      NB_REQUIRE(weight_per_ball == 1, "the random departure channel retires unit quanta");
      depart_random(isa, lanes, n, snap, snap_base, snap_span, rel, k, seed);
      return;
  }
}

}  // namespace

void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint16_t* rel, step_count k,
                   std::uint64_t seed) {
  depart_impl(isa, lanes, channel, n, snap, snap_base, snap_span, weight_per_ball, rel, k, seed);
}

void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint32_t* rel, step_count k,
                   std::uint64_t seed) {
  depart_impl(isa, lanes, channel, n, snap, snap_base, snap_span, weight_per_ball, rel, k, seed);
}

}  // namespace nb
