// Lane-interleaved SIMD drain-departure kernel: the bulk mirror of the
// allocation kernel for the steady-state churn regime.
//
// One call answers "serve k drain departures against a frozen 8-bit load
// snapshot and count the departures per bin" -- the drain half of a
// churn cycle in the one-shard engine.  Drain is two-choice in reverse:
// per event, lane l consumes bounded(n), bounded(n) and exactly one raw
// tie draw, and the FULLER bin by snapshot offset wins (tie bit set ->
// first index).  That is the allocation kernel's canonical min-select
// over the byte-INVERTED snapshot (255 - off[i]) with identical tie
// semantics, so every fill backend -- scalar, AVX2, AVX-512 -- is reused
// verbatim and cross-backend bit-identity is inherited, not re-proven.
// The caller passes that inverted snapshot (compact_snapshot::
// assign_inverted writes it in its one assignment pass, once per block);
// the kernel reads it as given, and a bin's snapshot load is
// base + 255 - byte.  At fold time the chosen bin's *remaining* load
// (snapshot load minus this call's own departures) must still cover the
// per-ball weight; a drained-dry pick is re-served under the re-serve law
// below from a dedicated scalar stream, rng_t(derive_seed(seed, lanes)),
// the stream "one past" the lanes.
//
// The other channels need no kernel: lease is RNG-free FIFO ring popping,
// and a random block is one exact serial pass of hypergeometric counts
// over the live loads (shard_engine::depart_block).
//
// THE RE-SERVE LAW (depart_replay) serves one drain departure serially
// over remaining load: redraw (i, j[, tie]) under the serial drain law --
// skip the pair when neither bin covers w, else the fuller bin wins (ties
// by the top bit of one raw draw).  After 4096 attempts it falls back to
// the fullest bin, first index winning, and throws contract_error when
// even that bin cannot cover w.  It has two callers: the fold above, for
// drained-dry picks, and the multi-shard drain block of the shard engine
// (core/engine/shard_engine.hpp), which clamps its merged shard counts to
// snapshot capacity inside its commit pass and then re-serves the clamped
// deficit from rng_t(derive_seed(token, shards)) over the snapshot and the
// clamped counts.  That clamp and re-serve is the engine's one repair: its
// drain shards count without the fold's capacity check (the byte form of
// kernel_run over the inverted snapshot), so a bin that one shard alone or
// several together draw past capacity is clamped and re-served there.
//
// CONTRACT (mirroring kernel_run, enforced by tests/test_depart_kernel.cpp):
// the per-bin departure counts are a pure function of (lanes, n,
// snapshot + base, weight, k, seed).  The ISA backend is execution-only
// and bit-identical to the scalar reference; `lanes` is a sampling
// parameter exactly like the allocation kernel's.  The batched draw order
// is deliberately NOT the serial per-event stream (the serial channel
// samples live loads; the kernel samples the frozen snapshot plus its own
// counts) -- batched departures are a declared sampling-contract
// parameter exactly like engine windows and kernel lanes, and the
// per-event serial path in core/process.hpp remains the reference law.
//
// Snapshot gather safety: like kernel_run, `inv` must stay readable for
// compact_snapshot::tail_padding bytes past index n - 1.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "core/kernel/kernel.hpp"
#include "rng/rng.hpp"

namespace nb {

/// Serves `k` drain departures against the INVERTED snapshot `inv` (n
/// bins, bytes 255 - offset over `snap_base` as written by
/// compact_snapshot::assign_inverted, tail-padded like kernel_run) and
/// accumulates `++rel[chosen]` per departing ball.  `weight_per_ball` is
/// the weight each departure retires (deterministic weightings only) --
/// the capacity fold guarantees that every bin's snapshot load
/// snap_base + 255 - inv[i] minus weight_per_ball * rel[i] stays
/// non-negative, so the caller can apply the counts with
/// load_state::apply_releases unguarded.
void kernel_depart(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* inv,
                   load_t snap_base, weight_t weight_per_ball, std::uint32_t* rel, step_count k,
                   std::uint64_t seed);

/// Serves one drain departure under the re-serve law (header comment)
/// against `inv` (as for kernel_depart) and the counts already in `rel`,
/// drawing from `replay`: `++rel[chosen]`, and returns `chosen`.  Throws
/// contract_error when no bin's remaining load covers `weight_per_ball`.
std::uint32_t depart_replay(bin_count n, const std::uint8_t* inv, load_t snap_base,
                            weight_t weight_per_ball, std::uint32_t* rel, xoshiro256pp& replay);

}  // namespace nb
