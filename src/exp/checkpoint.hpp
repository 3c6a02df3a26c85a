// Mid-run checkpoint/restore: preemptible, kill-safe paper-scale runs.
//
// A checkpoint captures the FULL mid-run state of one simulation run --
// the RNG stream, the load vector, and every piece of per-process noise
// state (delay rings, batch snapshots, cached Gaussian halves) -- so a
// SIGKILLed run resumes from the last checkpoint and finishes
// byte-identical to an uninterrupted one.  That identity is the design
// invariant everything here serves:
//
//     checkpoint + restore == uninterrupted, bit for bit,
//     across serial / shard / kernel engines and any thread count.
//
// Two ingredients make it hold:
//
//   1. Completeness.  capture_checkpoint() serializes the xoshiro256++
//      stream (4 words) next to the process payload each checkpointable
//      process defines (core/process.hpp's checkpointable_process
//      contract), so the resumed run continues the exact random sequence.
//
//   2. Window alignment.  The shard and kernel engines draw one master-
//      stream token per stale-snapshot window, and a step-call boundary
//      inside a window would split it (two tokens -- different results).
//      run_checkpointed() therefore cuts its chunks only at window
//      boundaries (process.snapshot_window(); serial-path processes
//      report 0 = cut anywhere), so the window sequence -- and hence the
//      result -- is unchanged no matter where or how often checkpoints
//      land.  Checkpoint cadence is an execution knob, never a sampling
//      parameter.
//
// On disk a checkpoint is a single self-validating file:
//
//     "NBCKPT" | version u32 | payload length u64 | CRC32 u32 | payload
//
// written atomically (util/fsio.hpp: temp + fsync + rename), so a crash
// DURING a checkpoint write leaves the previous checkpoint intact and a
// reader never observes a torn file.  Every corruption mode -- bad magic,
// unknown version, truncation, flipped bytes, trailing garbage -- throws
// nb::contract_error with a clean diagnostic (fuzzed in
// tests/test_checkpoint.cpp).
//
// Crash-fault injection: the NB_CRASH_AFTER_BALLS environment variable
// arms crash_test_tick(), which SIGKILLs the process (no destructors, no
// atexit -- a real crash) once that many balls have moved through
// checkpointed drivers.  tools/crash_fuzz.py uses it to kill campaigns at
// randomized points and assert resumed == uninterrupted, byte for byte.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace nb {

/// CRC32 (IEEE reflected polynomial 0xEDB88320, the zlib/PNG checksum),
/// slicing-by-8 -- fast enough that guarding a paper-scale payload (the
/// n = 1e6 load vector is 4 MB) costs well under the file write itself.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size) noexcept;

/// The in-memory form of one run's checkpoint.  Identity fields
/// (process_name, engine, cell, seed) are validated on restore so a
/// checkpoint can never silently resume the wrong run; balls_done and the
/// RNG words are the resume position; process_state is the opaque payload
/// the process's save_checkpoint wrote.
struct run_checkpoint {
  std::string process_name;              ///< process.name() at save time
  std::string engine;                    ///< run_engine::fingerprint()
  std::uint64_t cell = 0;                ///< campaign cell index (0 standalone)
  std::uint64_t seed = 0;                ///< the run's RNG seed
  step_count balls_done = 0;             ///< balls allocated before the save
  std::array<std::uint64_t, 4> rng_state{};  ///< master xoshiro256++ words
  std::vector<std::uint8_t> process_state;   ///< checkpointable_process payload
};

/// Serializes to / parses from the "NBCKPT" container.  decode throws
/// nb::contract_error on every corruption mode (magic, version, length,
/// CRC, truncated or over-long payload) -- it never reads out of bounds
/// and never trusts a length prefix before checking it.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(const run_checkpoint& ckpt);
[[nodiscard]] run_checkpoint decode_checkpoint(const std::vector<std::uint8_t>& bytes);

/// Atomic, durable write of the encoded container (temp + fsync + rename:
/// a crash mid-write leaves the previous file).
void write_checkpoint_file(const std::string& path, const run_checkpoint& ckpt);

/// Missing file -> std::nullopt (start from scratch); unreadable or
/// corrupt file -> contract_error (must be surfaced, not silently
/// restarted).
[[nodiscard]] std::optional<run_checkpoint> try_read_checkpoint_file(const std::string& path);

/// Snapshots a mid-run process + its RNG stream.  The process must model
/// checkpointable_process (probe any_process::checkpointable() first;
/// save on an unsupporting process throws).
[[nodiscard]] run_checkpoint capture_checkpoint(const any_process& process, const rng_t& rng,
                                                const std::string& engine_fingerprint,
                                                std::uint64_t cell, std::uint64_t seed);

/// Same, but with an explicit progress counter instead of the process's
/// resident ball count.  Drivers whose progress is not balls() -- the
/// churn driver, where departures make balls() non-monotone -- store
/// their own unit (warm-up balls, then occupancy + events) in balls_done.
[[nodiscard]] run_checkpoint capture_checkpoint(const any_process& process, const rng_t& rng,
                                                const std::string& engine_fingerprint,
                                                std::uint64_t cell, std::uint64_t seed,
                                                step_count progress);

/// Restores `ckpt` into a freshly constructed process + RNG, validating
/// the full identity first: process name, engine fingerprint (sampling
/// contract -- resuming under a different thread count or ISA backend is
/// legal by construction, under different shards is not), cell,
/// seed, and 0 <= balls_done <= m; after the payload is applied the
/// process must agree it holds balls_done balls.  Returns balls_done.
step_count restore_from_checkpoint(any_process& process, rng_t& rng, const run_checkpoint& ckpt,
                                   const std::string& engine_fingerprint, std::uint64_t cell,
                                   std::uint64_t seed, step_count m);

/// The identity-and-payload half of restore_from_checkpoint: validates
/// process name / engine fingerprint / cell / seed, applies the payload
/// and RNG words, and returns balls_done WITHOUT interpreting it against
/// the process's resident ball count.  For drivers whose progress counter
/// is not balls() (the churn driver); insertion-only callers use
/// restore_from_checkpoint, which adds the resident-count checks.
step_count restore_checkpoint_identity(any_process& process, rng_t& rng,
                                       const run_checkpoint& ckpt,
                                       const std::string& engine_fingerprint, std::uint64_t cell,
                                       std::uint64_t seed);

/// Steps `process` from its current ball count up to `m` total balls
/// through `engine`, cutting only at stale-snapshot window boundaries,
/// and calls `at_mark(balls_done)` at the first boundary at or after each
/// multiple of `checkpoint_every` balls (0 = no marks).  Marks are keyed
/// on the ABSOLUTE ball count, so a resumed run lands on exactly the
/// boundaries the uninterrupted run would have -- the window sequence,
/// and therefore the result, is identical whether the run was cut zero,
/// one, or fifty times.  Windows longer than the cadence simply space the
/// marks out (the boundary wins; alignment is what preserves results).
/// Feeds crash_test_tick() once per chunk.
run_result run_checkpointed(any_process& process, step_count m, rng_t& rng, run_engine& engine,
                            step_count checkpoint_every,
                            const std::function<void(step_count)>& at_mark);

/// Crash-fault injection hook.  When NB_CRASH_AFTER_BALLS is set to a
/// positive integer, the process raises SIGKILL once that many balls
/// (summed process-wide, across threads and cells) have been reported
/// here.  Checked at chunk boundaries, so the kill lands between engine
/// steps -- exactly where a preemption or OOM kill would.  Unset or
/// invalid: a no-op that reads one atomic.
void crash_test_tick(step_count balls) noexcept;

}  // namespace nb
