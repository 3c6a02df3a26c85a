// Block driver of the drain-departure kernel (see kernel_depart.hpp for
// the law and the sampling contract).
//
// The driver owns everything backend-independent, mirroring kernel.cpp:
// lane-state setup, threshold hoists, cutting the run into L1-resident
// blocks at lane-count multiples, and folding decided events into the
// caller's departure-count row.  The fold is also where departures differ
// from arrivals: counts must never overdraw a bin, so it checks the
// chosen bin's remaining load per event and re-serves drained-dry picks
// under the re-serve law (depart_replay, which the shard engine's settle
// also runs for its clamped deficit) on a dedicated scalar stream.
#include "core/kernel/kernel_depart.hpp"

#include <string>

#include "core/kernel/kernel_common.hpp"

namespace nb {
namespace {

/// Replay attempts before the re-serve law falls back to the
/// deterministic fullest-bin scan.  Generous: a redraw only fails while
/// nearly every sampled pair is drained dry, so hitting the cap at all
/// means the block is retiring a large fraction of the snapshot's load.
constexpr int kDrainReplayAttempts = 4096;

/// Remaining load of bin c: its snapshot load base + 255 - inv[c] minus
/// the weight its counted departures already retired.
weight_t remaining_load(const std::uint8_t* inv, load_t base, weight_t w, const std::uint32_t* rel,
                        std::uint32_t c) noexcept {
  return static_cast<weight_t>(base) + (inv[c] ^ 0xFF) - static_cast<weight_t>(rel[c]) * w;
}

}  // namespace

/// Fill backends decide "fuller of two snapshot samples" as the canonical
/// min-select over the caller's byte-inverted snapshot `inv`; the fold
/// retires weight w per event with a per-event remaining-capacity check.
void kernel_depart(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* inv,
                   load_t snap_base, weight_t w, std::uint32_t* rel, step_count k,
                   std::uint64_t seed) {
  NB_REQUIRE(lanes >= 1 && lanes <= kernel_max_lanes, "kernel lanes must be in [1, 64]");
  NB_REQUIRE(n >= 1, "kernel needs at least one bin");
  NB_REQUIRE(w >= 1 && w <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  NB_ASSERT(k >= 0 && inv != nullptr && rel != nullptr);
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
      const std::uint32_t c = chosen[t];
      if (remaining_load(inv, snap_base, w, rel, c) >= w) {
        ++rel[c];
      } else {
        (void)depart_replay(n, inv, snap_base, w, rel, replay);
      }
    }
    k -= static_cast<step_count>(count);
  }
}

std::uint32_t depart_replay(bin_count n, const std::uint8_t* inv, load_t snap_base,
                            weight_t w, std::uint32_t* rel, xoshiro256pp& replay) {
  const auto remaining = [&](std::uint32_t c) noexcept {
    return remaining_load(inv, snap_base, w, rel, c);
  };
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

}  // namespace nb
