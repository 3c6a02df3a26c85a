// Block driver of the departure kernel (see kernel_depart.hpp for the
// channel laws and the sampling contract).
//
// The driver owns everything backend-independent, mirroring kernel.cpp:
// lane-state setup, threshold hoists, cutting the run into L1-resident
// blocks at lane-count multiples, and folding decided events into the
// caller's departure-count row.  The fold is also where departures differ
// from arrivals: counts must never overdraw a bin, so the drain fold
// checks the chosen bin's remaining load per event (re-serving drained-dry
// picks under the re-serve law, replay_one, on a dedicated scalar stream)
// and the random fold folds the capacity check into the acceptance test
// itself.  replay_one is also exported as depart_replay for the shard
// engine's clamped deficit.
#include "core/kernel/kernel_depart.hpp"

#include <string>

#include "core/kernel/kernel_common.hpp"

namespace nb {
namespace {

/// Replay attempts before the drain fold falls back to the deterministic
/// fullest-bin scan.  Generous: a redraw only fails while nearly every
/// sampled pair is drained dry, so hitting the cap at all means the block
/// is retiring a large fraction of the snapshot's total load.
constexpr int kDrainReplayAttempts = 4096;

/// Remaining load of bin c: its snapshot load base + (snap[c] ^ mask) --
/// mask 0xFF on drain's inverted bytes, 0 on the plain ones -- minus the
/// weight its counted departures already retired.
template <typename Row>
weight_t remaining_load(const std::uint8_t* snap, std::uint8_t mask, load_t base, weight_t w,
                        const Row* rel, std::uint32_t c) noexcept {
  return static_cast<weight_t>(base) + (snap[c] ^ mask) - static_cast<weight_t>(rel[c]) * w;
}

/// The serial re-serve law (kernel_depart.hpp): serves one departure over
/// remaining load from `replay` and returns its bin.
template <typename Row>
std::uint32_t replay_one(depart_channel channel, bin_count n, const std::uint8_t* snap,
                         load_t base, std::uint8_t span, weight_t w, Row* rel,
                         xoshiro256pp& replay) {
  const std::uint8_t mask = channel == depart_channel::drain ? 0xFF : 0;
  const auto remaining = [&](std::uint32_t c) noexcept {
    return remaining_load(snap, mask, base, w, rel, c);
  };
  if (channel == depart_channel::random) {
    const std::uint64_t bound = static_cast<std::uint64_t>(base) + span;
    for (;;) {
      const auto j = static_cast<std::uint32_t>(bounded(replay, n));
      if (bounded(replay, bound) < static_cast<std::uint64_t>(remaining(j))) {
        ++rel[j];
        return j;
      }
    }
  }
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
    return c;
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
  return best;
}

/// Drain: fill backends decide "fuller of two snapshot samples" as the
/// canonical min-select over the caller's byte-inverted snapshot `inv`
/// (compact_snapshot::assign_inverted); the fold retires weight w per
/// event with a per-event remaining-capacity check, writing each served
/// bin to `served` when it is non-null.
template <typename Row>
void depart_drain(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* inv,
                  load_t snap_base, std::uint8_t snap_span, weight_t w, Row* rel, step_count k,
                  std::uint64_t seed, std::uint32_t* served) {
  const kernel_detail::fill_fn fill = kernel_detail::backend_for(isa).fill;
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t threshold = kernel_detail::lemire_threshold(n);

  // Dedicated scalar stream for drained-dry picks: lane streams occupy
  // derive_seed(seed, 0..lanes-1), so the replay stream is the next one.
  xoshiro256pp replay(derive_seed(seed, lanes));

  const std::size_t block = kernel_detail::block_balls(lanes);
  alignas(64) std::uint32_t chosen[kernel_detail::kBlockBalls];
  while (k > 0) {
    const std::size_t count =
        k < static_cast<step_count>(block) ? static_cast<std::size_t>(k) : block;
    fill(state, n, threshold, inv, chosen, count);
    for (std::size_t t = 0; t < count; ++t) {
      std::uint32_t c = chosen[t];
      if (remaining_load(inv, 0xFF, snap_base, w, rel, c) >= w) {
        ++rel[c];
      } else {
        c = replay_one(depart_channel::drain, n, inv, snap_base, snap_span, w, rel, replay);
      }
      if (served != nullptr) *served++ = c;
    }
    k -= static_cast<step_count>(count);
  }
}

/// Random: the pair fill bulk-generates (bin, acceptance) attempt pairs;
/// the fold serves an attempt iff its acceptance draw lands under the
/// bin's remaining load, until k departures are served (each served bin
/// goes to `served` when it is non-null).
template <typename Row>
void depart_random(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                   load_t snap_base, std::uint8_t snap_span, Row* rel, step_count k,
                   std::uint64_t seed, std::uint32_t* served) {
  // Frozen acceptance bound: the snapshot maximum.  load_t is 32-bit, so
  // base + span always fits the pair fill's < 2^32 bound contract.
  const std::uint64_t bound = static_cast<std::uint64_t>(snap_base) + snap_span;
  NB_REQUIRE(bound >= 1, "random departure kernel needs resident load in the snapshot");
  const kernel_detail::fill_pair_fn fill = kernel_detail::backend_for(isa).fill_pair;
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t thresh_n = kernel_detail::lemire_threshold(n);
  const std::uint64_t thresh_b = kernel_detail::lemire_threshold(bound);
  const std::size_t block = kernel_detail::block_balls(lanes);
  alignas(64) std::uint32_t idx[kernel_detail::kBlockBalls];
  alignas(64) std::uint32_t acc[kernel_detail::kBlockBalls];
  while (k > 0) {
    // Full fixed-size attempt blocks until k departures are served; the
    // final block's unused tail is discarded (declared draw order).
    fill(state, n, thresh_n, bound, thresh_b, idx, acc, block);
    for (std::size_t t = 0; t < block && k > 0; ++t) {
      const std::uint32_t j = idx[t];
      const weight_t rem = remaining_load(snap, 0, snap_base, 1, rel, j);
      if (rem > 0 && static_cast<weight_t>(acc[t]) < rem) {
        ++rel[j];
        if (served != nullptr) *served++ = j;
        --k;
      }
    }
  }
}

template <typename Row>
void depart_impl(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                 const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                 weight_t weight_per_ball, Row* rel, step_count k, std::uint64_t seed,
                 std::uint32_t* served) {
  NB_REQUIRE(lanes >= 1 && lanes <= kernel_max_lanes, "kernel lanes must be in [1, 64]");
  NB_REQUIRE(n >= 1, "kernel needs at least one bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  NB_ASSERT(k >= 0 && snap != nullptr && rel != nullptr);
  switch (channel) {
    case depart_channel::drain:
      depart_drain(isa, lanes, n, snap, snap_base, snap_span, weight_per_ball, rel, k, seed,
                   served);
      return;
    case depart_channel::random:
      NB_REQUIRE(weight_per_ball == 1, "the random departure channel retires unit quanta");
      depart_random(isa, lanes, n, snap, snap_base, snap_span, rel, k, seed, served);
      return;
  }
}

}  // namespace

void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint16_t* rel, step_count k,
                   std::uint64_t seed, std::uint32_t* served) {
  depart_impl(isa, lanes, channel, n, snap, snap_base, snap_span, weight_per_ball, rel, k, seed,
              served);
}

void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint32_t* rel, step_count k,
                   std::uint64_t seed, std::uint32_t* served) {
  depart_impl(isa, lanes, channel, n, snap, snap_base, snap_span, weight_per_ball, rel, k, seed,
              served);
}

void depart_replay(depart_channel channel, bin_count n, const std::uint8_t* snap,
                   load_t snap_base, std::uint8_t snap_span, weight_t weight_per_ball,
                   std::uint32_t* rel, xoshiro256pp& replay) {
  (void)replay_one(channel, n, snap, snap_base, snap_span, weight_per_ball, rel, replay);
}

}  // namespace nb
