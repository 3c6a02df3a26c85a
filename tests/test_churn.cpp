// Tests for steady-state churn (the symmetric arrival/departure API):
//
//   * advance() with zero departures IS step_many, bit for bit, for every
//     registered process -- the historical arrivals-only RNG streams are
//     preserved exactly;
//   * per-ball == bulk under churn: advance() matches a hand-rolled
//     per-event loop drawing one ball / one departure at a time;
//   * the churn driver's gap trajectory is engine-invariant: bit-identical
//     across serial/shard/kernel engines on windowless processes, across
//     thread counts on the shard engine, and across ISA backends on the
//     kernel engine;
//   * the batched departure path (cycles at or above the engines'
//     min_window route through the engines' departure blocks): a declared
//     sampling-contract change that stays ISA- and thread-count
//     invariant, conserves occupancy at every cycle boundary, and agrees
//     with the serial per-event law distributionally;
//   * checkpoint + restore mid-churn == uninterrupted, bit for bit, with
//     the lease ring in flight and with the batched path engaged
//     (churn_fingerprint guards the contract);
//   * drain departures under a fixed ball weighting retire the ball's
//     actual weight, serially and in bulk, with underflow contract
//     errors naming the bin and the weight;
//   * the allocate/release contract surface: underflow/overflow messages
//     name the bin and the attempted weight, departures without a channel
//     or without residents refuse loudly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;
using nb::testing::param_for;

// ---------------------------------------------------------------------------
// Arrivals-only advance() == step_many, registry-wide.

TEST(Advance, ZeroDeparturesIsStepManyBitForBitForEveryRegisteredProcess) {
  for (const auto& [kind, description] : registered_process_kinds()) {
    process_spec spec;
    spec.kind = kind;
    spec.n = 48;
    spec.param = param_for(kind);
    const std::uint64_t seed = 99 + std::hash<std::string>{}(kind);

    any_process historical = make_process(spec);
    rng_t historical_rng(seed);
    step_many(historical, historical_rng, 3000);

    any_process streamed = make_process(spec);
    rng_t streamed_rng(seed);
    advance(streamed, streamed_rng, traffic_spec{3000, 0});

    EXPECT_EQ(historical.state().loads(), streamed.state().loads()) << kind;
    EXPECT_EQ(historical_rng.state(), streamed_rng.state()) << kind;
  }
}

// ---------------------------------------------------------------------------
// Per-ball == bulk under churn.

void expect_advance_matches_per_event_loop(process_spec spec, step_count arrivals,
                                           step_count departures, std::uint64_t seed) {
  any_process bulk = make_process(spec);
  rng_t bulk_rng(seed);
  advance(bulk, bulk_rng, traffic_spec{arrivals, departures});

  // The same event stream, one ball / one departure at a time (the
  // documented interleaving: departure k after ceil-spread arrivals).
  any_process reference = make_process(spec);
  rng_t reference_rng(seed);
  step_count placed = 0;
  for (step_count k = 0; k < departures; ++k) {
    const step_count upto = arrivals * (k + 1) / departures;
    for (; placed < upto; ++placed) reference.step(reference_rng);
    reference.depart(reference_rng);
  }

  EXPECT_EQ(bulk.state().loads(), reference.state().loads()) << spec.kind;
  EXPECT_EQ(bulk.state().balls(), reference.state().balls()) << spec.kind;
  EXPECT_EQ(bulk_rng.state(), reference_rng.state()) << spec.kind;
}

TEST(Advance, MatchesPerEventLoopUnderChurn) {
  for (const char* departures : {"random", "lease", "drain"}) {
    process_spec spec;
    spec.kind = "two-choice";
    spec.n = 64;
    spec.departures = departures;
    expect_advance_matches_per_event_loop(spec, 4000, 1000, 7);
  }
  // A frozen-window process: chunked step_many inside advance() must not
  // disturb the per-ball stream either.
  process_spec batch;
  batch.kind = "b-batch";
  batch.n = 64;
  batch.param = 37.0;
  batch.departures = "random";
  expect_advance_matches_per_event_loop(batch, 4000, 800, 8);
}

TEST(Advance, UnevenArrivalDepartureRatiosCoverEveryEvent) {
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 32;
  spec.departures = "random";
  // More departures than arrivals and a non-divisible ratio both have to
  // serve exactly the requested counts.
  any_process process = make_process(spec);
  rng_t rng(11);
  step_many(process, rng, 500);  // residents so departures never starve
  advance(process, rng, traffic_spec{7, 3});
  EXPECT_EQ(process.state().balls(), 500 + 7 - 3);
  advance(process, rng, traffic_spec{3, 7});
  EXPECT_EQ(process.state().balls(), 500 + 7 - 3 + 3 - 7);
}

// ---------------------------------------------------------------------------
// The churn driver: engine invariance of the gap trajectory.

struct churn_trace {
  std::vector<load_t> loads;
  std::vector<churn_point> trajectory;
};

::testing::AssertionResult trajectories_identical(const std::vector<churn_point>& a,
                                                  const std::vector<churn_point>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "trajectory lengths differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].events_done != b[i].events_done || a[i].gap != b[i].gap ||
        a[i].underload_gap != b[i].underload_gap || a[i].max_load != b[i].max_load ||
        a[i].resident != b[i].resident) {
      return ::testing::AssertionFailure() << "trajectories diverge at sample " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

churn_trace run_churn_trace(const process_spec& spec, const engine_config& econfig,
                            const churn_options& opt, std::uint64_t seed) {
  any_process process = make_process(spec);
  rng_t rng(seed);
  run_engine engine(econfig);
  const churn_result result = run_churn(process, opt, rng, engine);
  EXPECT_EQ(result.trajectory.back().resident, opt.occupancy);
  return churn_trace{process.state().loads(), result.trajectory};
}

TEST(RunChurn, GapTrajectoryIdenticalAcrossSerialShardAndKernelEngines) {
  // two-choice has no stale-snapshot window, so every engine takes the
  // identical serial fused loop: cross-engine identity is BITWISE here.
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 96;
  spec.departures = "random";
  churn_options opt;
  opt.occupancy = 3000;
  opt.events = 2000;
  opt.cycle = 512;
  opt.telemetry_every = 600;

  const churn_trace serial = run_churn_trace(spec, engine_config{}, opt, 21);

  engine_config shard;
  shard.threads_per_run = 3;
  shard.shards = 8;
  const churn_trace sharded = run_churn_trace(spec, shard, opt, 21);

  engine_config kernel;
  kernel.use_kernel = true;
  kernel.isa = kernel_isa::scalar;
  const churn_trace kerneled = run_churn_trace(spec, kernel, opt, 21);

  EXPECT_EQ(serial.loads, sharded.loads);
  EXPECT_EQ(serial.loads, kerneled.loads);
  EXPECT_TRUE(trajectories_identical(serial.trajectory, sharded.trajectory));
  EXPECT_TRUE(trajectories_identical(serial.trajectory, kerneled.trajectory));
  EXPECT_GE(serial.trajectory.size(), 3u);  // telemetry actually sampled
}

TEST(RunChurn, ShardEngineThreadCountInvariantUnderChurn) {
  process_spec spec;
  spec.kind = "b-batch";
  spec.n = 64;
  spec.param = 64.0;
  spec.departures = "random";
  churn_options opt;
  opt.occupancy = 2000;
  opt.events = 1200;
  opt.cycle = 256;

  engine_config one;
  one.threads_per_run = 1;
  one.shards = 8;
  engine_config three = one;
  three.threads_per_run = 3;

  const churn_trace a = run_churn_trace(spec, one, opt, 33);
  const churn_trace b = run_churn_trace(spec, three, opt, 33);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_TRUE(trajectories_identical(a.trajectory, b.trajectory));
}

TEST(RunChurn, KernelEngineIsaInvariantUnderChurn) {
  process_spec spec;
  spec.kind = "b-batch";
  spec.n = 64;
  spec.param = 64.0;
  spec.departures = "drain";
  churn_options opt;
  opt.occupancy = 2000;
  opt.events = 1200;
  opt.cycle = 256;

  engine_config scalar;
  scalar.use_kernel = true;
  scalar.isa = kernel_isa::scalar;
  engine_config best = scalar;
  best.isa = detect_kernel_isa();

  const churn_trace a = run_churn_trace(spec, scalar, opt, 44);
  const churn_trace b = run_churn_trace(spec, best, opt, 44);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_TRUE(trajectories_identical(a.trajectory, b.trajectory));
}

TEST(RunChurn, ResidentsReturnToOccupancyAtEveryCycleBoundary) {
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 32;
  spec.departures = "lease";
  churn_options opt;
  opt.occupancy = 800;
  opt.events = 700;
  opt.cycle = 128;
  opt.telemetry_every = 128;
  any_process process = make_process(spec);
  rng_t rng(5);
  run_engine engine{engine_config{}};
  const churn_result result = run_churn(process, opt, rng, engine);
  ASSERT_FALSE(result.trajectory.empty());
  for (const churn_point& point : result.trajectory) {
    EXPECT_EQ(point.resident, opt.occupancy);
  }
  EXPECT_EQ(result.trajectory.back().events_done, opt.events);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume mid-churn, lease ring in flight.

TEST(RunChurn, CheckpointRestoreMidChurnIsBitIdenticalWithLeaseRingInFlight) {
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 64;
  spec.departures = "lease";
  churn_options opt;
  opt.occupancy = 2000;
  opt.events = 1500;
  opt.cycle = 256;
  const std::uint64_t seed = 77;
  const step_count every = 1000;

  // Uninterrupted reference.
  any_process reference = make_process(spec);
  rng_t reference_rng(seed);
  run_engine reference_engine{engine_config{}};
  (void)run_churn(reference, opt, reference_rng, reference_engine);

  // Checkpointed run: capture at every mark, keep the last one (mid-churn,
  // past the warm-up, lease ring partially drained and refilled).
  any_process full = make_process(spec);
  rng_t full_rng(seed);
  run_engine full_engine{engine_config{}};
  std::vector<run_checkpoint> marks;
  const churn_result full_result = run_churn_checkpointed(
      full, opt, full_rng, full_engine, every,
      [&](step_count progress) {
        marks.push_back(capture_checkpoint(full, full_rng, full_engine.churn_fingerprint(), 3,
                                           seed, progress));
      });
  ASSERT_GE(marks.size(), 2u);
  const run_checkpoint& survived = marks.back();
  ASSERT_GT(survived.balls_done, opt.occupancy) << "the kept mark must be mid-churn";

  // The container round-trips the lease ring too.
  const run_checkpoint decoded = decode_checkpoint(encode_checkpoint(survived));

  any_process resumed = make_process(spec);
  rng_t resumed_rng(1);  // clobbered by the restore
  run_engine resumed_engine{engine_config{}};
  const step_count progress_done = restore_checkpoint_identity(
      resumed, resumed_rng, decoded, resumed_engine.churn_fingerprint(), 3, seed);
  EXPECT_EQ(progress_done, survived.balls_done);
  EXPECT_EQ(resumed.state().balls(), opt.occupancy);
  const churn_result resumed_result = run_churn_checkpointed(
      resumed, opt, resumed_rng, resumed_engine, every, {}, progress_done);

  EXPECT_EQ(reference.state().loads(), resumed.state().loads());
  EXPECT_EQ(full.state().loads(), resumed.state().loads());
  EXPECT_EQ(full_result.final_state.gap, resumed_result.final_state.gap);
  EXPECT_EQ(reference_rng.state(), resumed_rng.state());
}

// ---------------------------------------------------------------------------
// The batched departure path: cycles at or above the engines' min_window
// serve departure blocks through the engines' batched blocks.

TEST(RunChurn, BatchedDeparturesEngageAndStayIsaInvariant) {
  // cycle == min_window (4096): the kernel engine serves every departure
  // block batched.  The batched path is a declared
  // sampling-contract change (different loads than the serial engine) but
  // the ISA backend stays execution-only (bit-identical trajectories).
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 64;
  spec.departures = "drain";
  churn_options opt;
  opt.occupancy = 8192;
  opt.events = 8192;
  opt.cycle = 4096;
  opt.telemetry_every = 2048;

  engine_config scalar;
  scalar.use_kernel = true;
  scalar.isa = kernel_isa::scalar;
  engine_config best = scalar;
  best.isa = detect_kernel_isa();

  const churn_trace a = run_churn_trace(spec, scalar, opt, 61);
  const churn_trace b = run_churn_trace(spec, best, opt, 61);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_TRUE(trajectories_identical(a.trajectory, b.trajectory));
  for (const churn_point& point : a.trajectory) {
    EXPECT_EQ(point.resident, opt.occupancy);  // boundaries conserve occupancy
  }

  // Undersized blocks would have fallen back serially with a one-shot
  // diagnostic; qualifying ones must not have.
  EXPECT_FALSE(warned("depart-engine-window/" + make_process(spec).name()));

  const churn_trace serial = run_churn_trace(spec, engine_config{}, opt, 61);
  EXPECT_NE(serial.loads, a.loads);
}

TEST(RunChurn, BatchedDeparturesThreadCountInvariantOnShardEngine) {
  process_spec spec;
  spec.kind = "b-batch";
  spec.n = 64;
  spec.param = 64.0;
  spec.departures = "drain";
  churn_options opt;
  opt.occupancy = 8192;
  opt.events = 8192;
  opt.cycle = 4096;

  engine_config one;
  one.threads_per_run = 1;
  one.shards = 8;
  engine_config three = one;
  three.threads_per_run = 3;

  const churn_trace a = run_churn_trace(spec, one, opt, 62);
  const churn_trace b = run_churn_trace(spec, three, opt, 62);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_TRUE(trajectories_identical(a.trajectory, b.trajectory));
}

TEST(RunChurn, BatchedAndSerialAgreeDistributionallyAtCycleBoundaries) {
  // The batched path draws different (identically distributed) randomness
  // than the per-event law; both sit at full occupancy at every cycle
  // boundary, and their steady-state gaps agree in the mean -- the same
  // bar as the allocation engines' distributional parity tests.
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 64;
  spec.departures = "random";
  churn_options opt;
  opt.occupancy = 8192;
  opt.events = 8192;
  opt.cycle = 4096;
  // A final gap here has a standard deviation of about 2.7 (600 runs per
  // side), so the difference of two 12-run means had one of 1.1 and the
  // 1.5 bound failed correct code about one time in six; over 128 runs
  // per side it is 0.34, and 1.5 sits at 4.4 standard deviations.
  const std::size_t runs = 128;
  double serial_mean = 0.0;
  double batched_mean = 0.0;
  engine_config kernel;
  kernel.use_kernel = true;
  for (std::size_t r = 0; r < runs; ++r) {
    const churn_trace serial = run_churn_trace(spec, engine_config{}, opt, derive_seed(5000, r));
    const churn_trace batched = run_churn_trace(spec, kernel, opt, derive_seed(6000, r));
    serial_mean += serial.trajectory.back().gap;
    batched_mean += batched.trajectory.back().gap;
    EXPECT_EQ(serial.trajectory.back().resident, opt.occupancy);
    EXPECT_EQ(batched.trajectory.back().resident, opt.occupancy);
  }
  EXPECT_NEAR(serial_mean / runs, batched_mean / runs, 1.5);
}

TEST(RunChurn, CheckpointRestoreMidChurnIsBitIdenticalOnBatchedKernelPath) {
  // Mid-churn checkpoint + restore with the batched departure path
  // engaged: marks land at cycle boundaries, the resumed run re-enters
  // the same drain block sequence, and churn_fingerprint (tagged
  // ",depart=batch") guards the contract.
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 64;
  spec.departures = "drain";
  churn_options opt;
  opt.occupancy = 8192;
  opt.events = 12288;
  opt.cycle = 4096;
  const std::uint64_t seed = 63;
  const step_count every = 6000;
  engine_config config;
  config.use_kernel = true;
  config.isa = kernel_isa::scalar;

  any_process reference = make_process(spec);
  rng_t reference_rng(seed);
  run_engine reference_engine{config};
  (void)run_churn(reference, opt, reference_rng, reference_engine);

  any_process full = make_process(spec);
  rng_t full_rng(seed);
  run_engine full_engine{config};
  EXPECT_NE(full_engine.churn_fingerprint().find(",depart=batch"), std::string::npos);
  EXPECT_EQ(full_engine.fingerprint().find(",depart=batch"), std::string::npos);
  std::vector<run_checkpoint> marks;
  (void)run_churn_checkpointed(full, opt, full_rng, full_engine, every,
                               [&](step_count progress) {
                                 marks.push_back(capture_checkpoint(
                                     full, full_rng, full_engine.churn_fingerprint(), 4, seed,
                                     progress));
                               });
  ASSERT_GE(marks.size(), 2u);
  const run_checkpoint survived = decode_checkpoint(encode_checkpoint(marks.back()));
  ASSERT_GT(survived.balls_done, opt.occupancy) << "the kept mark must be mid-churn";

  // Restoring under the pre-batch insertion fingerprint must refuse: the
  // batched path is a different sampling contract.
  {
    any_process wrong = make_process(spec);
    rng_t wrong_rng(1);
    EXPECT_THROW(static_cast<void>(restore_checkpoint_identity(
                     wrong, wrong_rng, survived, full_engine.fingerprint(), 4, seed)),
                 contract_error);
  }

  any_process resumed = make_process(spec);
  rng_t resumed_rng(1);  // clobbered by the restore
  run_engine resumed_engine{config};
  const step_count progress_done = restore_checkpoint_identity(
      resumed, resumed_rng, survived, resumed_engine.churn_fingerprint(), 4, seed);
  EXPECT_EQ(progress_done, survived.balls_done);
  (void)run_churn_checkpointed(resumed, opt, resumed_rng, resumed_engine, every, {},
                               progress_done);

  EXPECT_EQ(reference.state().loads(), resumed.state().loads());
  EXPECT_EQ(reference_rng.state(), resumed_rng.state());
}

TEST(RunChurn, CheckpointRestoreBatchedEngineKeepsLeaseRingInFlight) {
  // The lease channel through an engine-selected (batched-path) run: the
  // bulk ring pop is part of the ",depart=batch" contract, and a mid-churn
  // mark round-trips the partially drained ring bit for bit.
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 64;
  spec.departures = "lease";
  churn_options opt;
  opt.occupancy = 2000;
  opt.events = 1500;
  opt.cycle = 256;
  const std::uint64_t seed = 64;
  const step_count every = 1000;
  engine_config config;
  config.use_kernel = true;

  any_process reference = make_process(spec);
  rng_t reference_rng(seed);
  run_engine reference_engine{config};
  (void)run_churn(reference, opt, reference_rng, reference_engine);

  any_process full = make_process(spec);
  rng_t full_rng(seed);
  run_engine full_engine{config};
  std::vector<run_checkpoint> marks;
  (void)run_churn_checkpointed(full, opt, full_rng, full_engine, every,
                               [&](step_count progress) {
                                 marks.push_back(capture_checkpoint(
                                     full, full_rng, full_engine.churn_fingerprint(), 4, seed,
                                     progress));
                               });
  ASSERT_GE(marks.size(), 2u);
  const run_checkpoint survived = decode_checkpoint(encode_checkpoint(marks.back()));
  ASSERT_GT(survived.balls_done, opt.occupancy);

  any_process resumed = make_process(spec);
  rng_t resumed_rng(1);
  run_engine resumed_engine{config};
  const step_count progress_done = restore_checkpoint_identity(
      resumed, resumed_rng, survived, resumed_engine.churn_fingerprint(), 4, seed);
  (void)run_churn_checkpointed(resumed, opt, resumed_rng, resumed_engine, every, {},
                               progress_done);

  EXPECT_EQ(reference.state().loads(), resumed.state().loads());
  EXPECT_EQ(reference_rng.state(), resumed_rng.state());
}

// ---------------------------------------------------------------------------
// Weighted drain: the channel retires the departing ball's actual weight.

TEST(WeightedDrain, SerialDepartRetiresTheBallsActualWeight) {
  two_choice process(8);
  process.set_model(make_model("fixed:4", "uniform", 8, "drain"));
  rng_t rng(3);
  step_many(process, rng, 10);
  ASSERT_EQ(process.state().balls(), 10);
  ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 40);
  const std::vector<load_t> before = process.state().loads();
  process.depart(rng);
  const std::vector<load_t> after = process.state().loads();
  EXPECT_EQ(process.state().balls(), 9);
  // Exactly one bin dropped, by exactly the fixed per-ball weight.
  int changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (after[i] != before[i]) {
      ++changed;
      EXPECT_EQ(before[i] - after[i], 4) << "bin " << i;
      EXPECT_GE(before[i], 4) << "bin " << i << " could not have covered the weight";
    }
  }
  EXPECT_EQ(changed, 1);
}

TEST(WeightedDrain, UnitWeightDrainIsTheHistoricalStreamBitForBit) {
  // fixed:1 and unit weighting are the same drain law, stream position
  // included -- the weighted path is exact at w = 1.
  two_choice weighted(16);
  weighted.set_model(make_model("fixed:1", "uniform", 16, "drain"));
  two_choice unit(16);
  unit.set_model(make_model("unit", "uniform", 16, "drain"));
  rng_t rng_a(17);
  rng_t rng_b(17);
  step_many(weighted, rng_a, 400);
  step_many(unit, rng_b, 400);
  for (int i = 0; i < 200; ++i) {
    weighted.depart(rng_a);
    unit.depart(rng_b);
  }
  EXPECT_EQ(weighted.state().loads(), unit.state().loads());
  EXPECT_EQ(rng_a.state(), rng_b.state());
}

TEST(WeightedDrain, BulkReleaseUnderflowNamesBinAndWeight) {
  load_state state(2);
  state.allocate(0, 5);
  state.allocate(1, 9);
  const std::vector<std::uint32_t> rel = {2, 0};
  try {
    state.apply_releases(rel, 3, 2);  // bin 0 would retire 6 > 5
    FAIL() << "bulk release past zero must throw";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("weight 6"), std::string::npos) << what;
    EXPECT_NE(what.find("bin 0"), std::string::npos) << what;
  }
  // Nothing was mutated (strong exception safety).
  EXPECT_EQ(state.loads()[0], 5);
  EXPECT_EQ(state.loads()[1], 9);
  EXPECT_EQ(state.balls(), 2);
}

TEST(WeightedDrain, BulkReleaseRefusesToBypassTheLeaseRing) {
  load_state state(2);
  state.set_lease_tracking(true);
  state.allocate(0);
  state.allocate(1);
  const std::vector<std::uint32_t> rel = {1, 0};
  EXPECT_THROW(state.apply_releases(rel, 1, 1), contract_error);
}

// ---------------------------------------------------------------------------
// Contract surface.

TEST(Release, UnderflowMessageNamesBinAndWeight) {
  load_state state(4);
  state.allocate(1);
  try {
    state.release(1, 5);
    FAIL() << "release past zero must throw";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("weight 5"), std::string::npos) << what;
    EXPECT_NE(what.find("bin 1"), std::string::npos) << what;
  }
}

TEST(Allocate, OverflowMessageNamesBinAndWeight) {
  load_state state(2);
  // Walk bin 0 up to the 32-bit load ceiling, then push it over.
  for (int i = 0; i < 127; ++i) state.allocate(0, max_ball_weight);
  try {
    state.allocate(0, max_ball_weight);
    FAIL() << "deposit past the 32-bit load ceiling must throw";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bin 0"), std::string::npos) << what;
    EXPECT_NE(what.find("weight " + std::to_string(max_ball_weight)), std::string::npos) << what;
  }
}

TEST(Release, WeightedReleaseMirrorsWeightedAllocate) {
  load_state state(3);
  state.allocate(0, 5);
  state.allocate(1, 2);
  state.release(0, 3);  // one departing ball of weight 3
  EXPECT_EQ(state.loads()[0], 2);
  EXPECT_EQ(state.loads()[1], 2);
  EXPECT_EQ(state.balls(), 1);
  EXPECT_EQ(state.max_load(), 2);
  state.release(1, 2);
  EXPECT_EQ(state.balls(), 0);
  EXPECT_THROW(state.release(0, 2), contract_error);  // no resident balls
}

TEST(Depart, RefusesWithoutAChannel) {
  two_choice process(8);  // default model: no departure channel
  rng_t rng(1);
  process.step(rng);
  EXPECT_THROW(process.depart(rng), contract_error);
}

TEST(Depart, RefusesWithNoResidentBalls) {
  two_choice process(8);
  process.set_model(make_model("unit", "uniform", 8, "random"));
  rng_t rng(1);
  EXPECT_THROW(process.depart(rng), contract_error);
}

TEST(LeaseRing, RequiresTrackingAndResidents) {
  load_state state(4);
  EXPECT_THROW(state.release_oldest(), contract_error);  // tracking off
  state.set_lease_tracking(true);
  EXPECT_THROW(state.release_oldest(), contract_error);  // nothing resident
  state.allocate(2);
  state.release_oldest();
  EXPECT_EQ(state.balls(), 0);
  state.allocate(1);
  state.set_lease_tracking(false);  // disabling just drops the ring
  EXPECT_THROW(state.set_lease_tracking(true), contract_error);  // non-empty
}

TEST(Sweep, DepartureAxisExpandsInnermostAndLabelsNonDefault) {
  sweep_grid grid;
  grid.kinds = {"two-choice"};
  grid.bins = {16};
  grid.departures = {"none", "random"};
  const auto points = expand_grid(grid);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].process.departures, "none");
  EXPECT_EQ(points[0].label.find("|d="), std::string::npos);
  EXPECT_EQ(points[1].process.departures, "random");
  EXPECT_NE(points[1].label.find("|d=random"), std::string::npos);
}

TEST(Campaign, ModelOverridesTurnRegistryConfigsIntoChurnCells) {
  sweep_grid grid;
  grid.kinds = {"two-choice"};
  grid.bins = {16};
  grid.m_override = 640;
  auto configs = make_configs(expand_grid(grid));
  model_overrides overrides;
  overrides.departures = "random";
  apply_model_overrides(configs, overrides);
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].process.departures, "random");
  EXPECT_EQ(configs[0].churn_occupancy, 640);
  overrides.churn_occupancy = 1000;
  apply_model_overrides(configs, overrides);
  EXPECT_EQ(configs[0].churn_occupancy, 1000);
}

}  // namespace
