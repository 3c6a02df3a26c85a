// Lane-interleaved SIMD allocation kernel: the data-parallel inner loop of
// every frozen-window allocation decision.
//
// One kernel call answers "given a frozen 8-bit load snapshot, allocate
// `balls` two-sample decisions and count the chosen bins" -- the body of a
// shard in the parallel engine and of a whole window in the serial kernel
// engine.  The kernel runs kernel_lanes = 8 independent xoshiro256++
// *lanes* (lane l is seeded derive_seed(seed, l)); ball t belongs to lane
// t % 8, and each ball consumes from its lane, in order:
//
//   1. one-or-more raw u64 draws for the first bin index i1 (Lemire
//      multiply-shift with rejection -- unbiased, same accept rule as
//      nb::bounded),
//   2. the same for the second bin index i2,
//   3. exactly one raw u64 draw c for the tie bit.
//
// The decision is the canonical two-sample rule over the snapshot:
// the less loaded of snap[i1]/snap[i2], ties broken by the top bit of c
// (bit set -> i1), and the chosen bin's counter is incremented: in a
// uint32 row, or in a byte row whose wraps append the bin to a carry list
// (the form the windowed engine folds into at every shard count).
//
// CONTRACT (enforced by tests/test_kernel.cpp): the accumulated counts are
// a pure function of (n, snapshot, balls, seed).  The instruction-set
// backend -- scalar, AVX2 or AVX-512, selected at runtime -- is execution
// only and NEVER affects results.  Each backend runs one plain loop, one
// lane round (one AVX-512 vector, two AVX2 vectors) at a time, the same
// fill for uniform and alias bin draws.  CPUs
// without AVX2 (including every aarch64 CPU) run the scalar backend.
//
// Snapshot gather safety: vector backends read the snapshot 4 bytes at a
// time, so `snap` must stay readable for 3 bytes past index n - 1.
// compact_snapshot allocates exactly this tail padding.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace nb {

/// Instruction-set backend of the allocation kernel.  Execution-only:
/// every backend is bit-identical.  The numeric
/// values are NOT serialized anywhere (checkpoint fingerprints and the
/// bench JSON both use the names), so the enum may grow freely.
enum class kernel_isa : std::uint8_t {
  scalar = 0,       ///< portable reference (defines the contract)
  avx2 = 1,         ///< 4 lanes per vector + hardware gathers
  avx512 = 2,       ///< 8 lanes per vector, masked rejection replay
  auto_detect = 3,  ///< resolve to the best backend this CPU supports
};

/// The kernel's lane count: one AVX-512 vector, two AVX2 vectors.  Fixed,
/// so the lane streams are not a sampling parameter: 1 lane ran at scalar
/// speed on every backend, and 16 or 32 lanes did not measure faster
/// (README "Lanes fixed at 8").
inline constexpr std::size_t kernel_lanes = 8;

/// Best backend the running CPU supports (never auto_detect).  CPUs
/// without AVX2 resolve to scalar.
[[nodiscard]] kernel_isa detect_kernel_isa() noexcept;

/// True when `isa` can execute on this CPU (auto_detect is always true).
/// avx512 is checked on top of AVX2.
[[nodiscard]] bool kernel_isa_supported(kernel_isa isa) noexcept;

/// Maps auto_detect to the detected best backend and downgrades an
/// unsupported request to the best supported one -- legal because the
/// backend never affects results.  The downgrade emits a one-shot
/// warn_once diagnostic (key "kernel-isa-fallback:<name>") so a forced
/// --isa that silently fell back is visible, not just legal.
[[nodiscard]] kernel_isa resolve_kernel_isa(kernel_isa requested) noexcept;

/// "scalar" / "avx2" / "avx512" / "auto".
[[nodiscard]] const char* kernel_isa_name(kernel_isa isa) noexcept;

/// Inverse of kernel_isa_name, plus the aliases "simd" (= auto_detect)
/// used by bench CLIs.  nullopt for anything else.
[[nodiscard]] std::optional<kernel_isa> kernel_isa_from_name(std::string_view name) noexcept;

/// Validates the value of a backend flag (`flag` is its spelling, e.g.
/// "--kernel" or "--isa"): returns the backend kernel_isa_from_name
/// gives, or nullopt for "off" when `allow_off`.  Anything else throws
/// contract_error naming the flag and the rejected value and listing
/// every accepted name.
[[nodiscard]] std::optional<kernel_isa> kernel_isa_flag(std::string_view flag,
                                                        std::string_view value, bool allow_off);

/// Runs `balls` lane-interleaved decisions against `snap` (n bins, 8-bit
/// offsets, 3 bytes of tail padding) and accumulates `++row[chosen]` per
/// ball.  A leftover the repo benchmark (perfbench batch_insert) pins: its
/// `lanes` must be kernel_lanes (anything else throws contract_error
/// naming the value), and ROADMAP item 4's declared benchmark change
/// deletes this overload for the byte form below.
void kernel_run(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                std::uint32_t* row, step_count balls, std::uint64_t seed);

/// The same decisions counted in a byte row with a carry list: per ball
/// `if (++low[chosen] == 0) carries.push_back(chosen)`.  Starting from a
/// zeroed `low` and an empty list, bin i's count is exactly low[i] + 256 *
/// (times i appears in carries), so the list holds at most balls / 256
/// entries, and a call adds to what the row and list already hold.  The
/// windowed engine folds this way: an n-byte row stays L2-resident next to
/// the snapshot at n = 10^6, where a uint32 row (4 MB) does not.  The
/// engine folds each pool task's shards into one such pair; an arrival
/// window with one task row commits its pair directly
/// (load_state::apply_increments), otherwise the engine sums the pairs.
void kernel_run(kernel_isa isa, bin_count n, const std::uint8_t* snap, std::uint8_t* low,
                std::vector<std::uint32_t>& carries, step_count balls, std::uint64_t seed);

/// Alias-sampled variant (non-uniform bin probabilities): each of a ball's
/// two bin indices is one alias draw -- a Lemire-bounded slot over [n)
/// followed by one raw u64 tested against the slot's 64-bit fixed-point
/// keep-threshold (`thresh[slot]`, else `alias[slot]`; both arrays live in
/// an nb::alias_table).  The decision over the snapshot is unchanged, and
/// the counts fold into a byte row with a carry list exactly as in the
/// byte form of kernel_run.  Same hard contract as kernel_run with the
/// table joining the pure-function inputs: counts depend only on (n,
/// snap, thresh, alias, balls, seed); backends are bit-identical (AVX2
/// and AVX-512 gather the tables and the snapshot).
void kernel_run_alias(kernel_isa isa, bin_count n, const std::uint8_t* snap,
                      const std::uint64_t* thresh, const bin_index* alias, std::uint8_t* low,
                      std::vector<std::uint32_t>& carries, step_count balls, std::uint64_t seed);

}  // namespace nb
