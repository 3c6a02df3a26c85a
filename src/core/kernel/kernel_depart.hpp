// Lane-interleaved SIMD departure kernel: the bulk mirror of the
// allocation kernel for the steady-state churn regime.
//
// One call answers "serve k departure events against a frozen 8-bit load
// snapshot and count the departures per bin" -- the departure half of a
// churn cycle in the serial kernel engine and of a shard's block in the
// parallel engine.  Two channels vectorize (the lease channel is RNG-free
// FIFO ring popping and never needs a kernel):
//
//   * drain -- two-choice in reverse.  Per event, lane l consumes
//     bounded(n), bounded(n) and exactly one raw tie draw, and the FULLER
//     bin by snapshot offset wins (tie bit set -> first index).  That is
//     the allocation kernel's canonical min-select over the byte-INVERTED
//     snapshot (255 - off[i]) with identical tie semantics, so every
//     fill backend -- scalar, AVX2, AVX-512 -- is reused verbatim and
//     cross-backend bit-identity is inherited, not re-proven.
//     The caller passes that inverted snapshot (compact_snapshot::
//     assign_inverted writes it in its one assignment pass, once per
//     block); the kernel reads it as given -- no per-call copy or
//     inversion pass -- and a bin's snapshot load is base + 255 - byte.
//     At fold time the chosen bin's *remaining* load (snapshot load minus
//     this call's own departures) must still cover the per-ball weight; a
//     drained-dry pick is re-served under the re-serve law below from a
//     dedicated scalar stream, rng_t(derive_seed(seed, lanes)), the stream
//     "one past" the lanes.
//
//   * random -- vectorized rejection sampling over resident load.  The
//     acceptance bound freezes at the snapshot maximum B = base + span;
//     per attempt, lane l consumes bounded(n) (a bin j) then bounded(B)
//     (an acceptance draw u), and the attempt serves one departure iff
//     u < remaining(j) -- acceptance against the *remaining* load embeds
//     the capacity check and keeps the served distribution exactly
//     proportional to remaining load.  Attempts are consumed in ball
//     order until k are served; the unused tail of the final fixed-size
//     attempt block is discarded (part of the declared draw order).
//     Retires unit quanta only, like the serial channel.
//
// THE RE-SERVE LAW (depart_replay) serves one departure serially over
// remaining load = base + (byte ^ mask) - rel * w, where mask is 0xFF on
// drain's inverted bytes and 0 on the plain ones:
//   * drain -- redraw (i, j[, tie]) under the serial drain law: skip the
//     pair when neither bin covers w, else the fuller bin wins (ties by
//     the top bit of one raw draw).  After 4096 attempts it falls back to
//     the fullest bin, first index winning, and throws contract_error when
//     even that bin cannot cover w;
//   * random -- rejection sampling: draw bin j, then u in [0, base + span),
//     and serve j iff u < remaining(j).
// It has two callers: the drain fold above, for drained-dry picks, and the
// multi-shard settle of the shard engine (core/engine/shard_engine.hpp),
// which clamps its merged shard counts to snapshot capacity and re-serves
// the clamped deficit on either channel from rng_t(derive_seed(token,
// shards)).  That settle is the engine's one repair: its drain shards pick
// without the fold's check (kernel_pick over the inverted snapshot), so a
// bin that one shard alone or several together pick past capacity is
// clamped and re-served there.
//
// CONTRACT (mirroring kernel_run, enforced by tests/test_kernel.cpp): the
// per-bin departure counts are a pure function of (channel, lanes, n,
// snapshot + base, weight, k, seed).  The ISA backend is execution-only
// and bit-identical to the scalar reference; `lanes` is a sampling
// parameter exactly like the allocation kernel's.  The batched draw order
// is deliberately NOT the serial per-event stream (the serial channels
// sample live loads; the kernel samples the frozen snapshot plus its own
// counts) -- batched departures are a declared sampling-contract
// parameter exactly like engine windows and kernel lanes, and the
// per-event serial path in core/process.hpp remains the reference law.
//
// Snapshot gather safety: like kernel_run, `snap` must stay readable for
// compact_snapshot::tail_padding bytes past index n - 1.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "core/kernel/kernel.hpp"
#include "rng/rng.hpp"

namespace nb {

/// Departure channel served by the kernel.  The numeric values are not
/// serialized anywhere (fingerprints and bench JSON use channel labels).
enum class depart_channel : std::uint8_t {
  random = 0,  ///< a uniformly random resident load unit departs
  drain = 1,   ///< two-choice drain: the fuller of two samples loses one ball
};

/// Serves `k` departures against `snap` (n bins, 8-bit offsets over
/// `snap_base`, `snap_span` = max offset, tail-padded like kernel_run) and
/// accumulates `++rel[chosen]` per departing ball.  The drain channel
/// takes the INVERTED snapshot (bytes 255 - offset, as written by
/// compact_snapshot::assign_inverted); the random channel takes the plain
/// one (compact_snapshot::assign).  `weight_per_ball` is
/// the weight each drain departure retires (deterministic weightings only;
/// must be 1 for the random channel) -- the capacity fold guarantees that
/// every bin's snapshot load minus weight_per_ball * rel[i] stays
/// non-negative, where the snapshot load is snap_base + 255 - snap[i] on
/// the drain channel and snap_base + snap[i] on the random channel, so
/// the caller can apply the counts with load_state::apply_releases
/// unguarded.  When `served` is non-null, served[e] also receives the bin
/// of the e-th departure, in serve order (`served` holds k entries), so a
/// caller can re-zero exactly the row entries the call touched.  The
/// uint16 overload and `served` serve the shard engine's random-channel
/// shards, each counting into a per-task scratch row (a shard serves at
/// most shard_deltas::max_row_count events); its drain shards run
/// kernel_pick instead.  The uint32 overload serves whole one-shard and
/// serial blocks.
void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint16_t* rel, step_count k,
                   std::uint64_t seed, std::uint32_t* served = nullptr);
void kernel_depart(kernel_isa isa, std::size_t lanes, depart_channel channel, bin_count n,
                   const std::uint8_t* snap, load_t snap_base, std::uint8_t snap_span,
                   weight_t weight_per_ball, std::uint32_t* rel, step_count k,
                   std::uint64_t seed, std::uint32_t* served = nullptr);

/// Serves one departure under the re-serve law (header comment) against
/// `snap` (encoded per channel as for kernel_depart) and the counts already
/// in `rel`, drawing from `replay`: `++rel[chosen]`.  Throws contract_error
/// when no drain bin's remaining load covers `weight_per_ball`.
void depart_replay(depart_channel channel, bin_count n, const std::uint8_t* snap,
                   load_t snap_base, std::uint8_t snap_span, weight_t weight_per_ball,
                   std::uint32_t* rel, xoshiro256pp& replay);

}  // namespace nb
