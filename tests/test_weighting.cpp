// Tests for the generalized allocation model (PR 5): ball weightings,
// alias-table bin sampling, the weight-based load_state, and the contract
// that the default unit/uniform configuration is bit-identical to the
// historical code while the generalized paths stay a pure function of
// (config, model, seed) across engines, thread counts and ISA backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;

// ---------------------------------------------------------------------------
// ball_weighting.

TEST(BallWeighting, UnitAndFixedConsumeNoRandomness) {
  rng_t rng(7);
  const std::uint64_t before = rng.next();
  rng_t replay(7);
  (void)before;

  const ball_weighting unit = ball_weighting::unit();
  const ball_weighting fixed = ball_weighting::fixed(64);
  rng_t probe(7);
  EXPECT_EQ(unit.draw(probe), 1);
  EXPECT_EQ(fixed.draw(probe), 64);
  // The generator was never touched: its next output equals a fresh
  // generator's first output.
  EXPECT_EQ(probe.next(), replay.next());
}

TEST(BallWeighting, TwoPointDrawsBothValuesWithRoughlyTheRightMass) {
  const ball_weighting w = ball_weighting::two_point(1, 100, 0.25);
  rng_t rng(11);
  int hi = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const weight_t v = w.draw(rng);
    ASSERT_TRUE(v == 1 || v == 100);
    if (v == 100) ++hi;
  }
  // p_hi = 0.25; allow ~5 sigma of slack (sigma ~ sqrt(p(1-p)/k) ~ 0.003).
  EXPECT_NEAR(static_cast<double>(hi) / kDraws, 0.25, 0.02);
  EXPECT_EQ(w.max_weight(), 100);
  EXPECT_TRUE(w.is_random());
}

TEST(BallWeighting, ParetoDrawsAreInRangeAndHeavyTailed) {
  const weight_t cap = 4096;
  const ball_weighting w = ball_weighting::pareto(1.5, cap);
  rng_t rng(13);
  weight_t max_seen = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const weight_t v = w.draw(rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, cap);
    max_seen = std::max(max_seen, v);
  }
  // P(W >= 100) ~ 100^-1.5 = 1e-3, so 50k draws see a 3-digit weight with
  // overwhelming probability -- the tail is actually heavy.
  EXPECT_GT(max_seen, 100);
  EXPECT_EQ(w.max_weight(), cap);
}

TEST(BallWeighting, SpecParsingRoundTrips) {
  EXPECT_TRUE(make_weighting("unit").is_unit());
  EXPECT_EQ(make_weighting("fixed:8").fixed_weight(), 8);
  EXPECT_TRUE(make_weighting("two-point:1,64,0.1").is_random());
  EXPECT_TRUE(make_weighting("pareto:1.5").is_random());
  EXPECT_EQ(make_weighting("pareto:2,100").max_weight(), 100);
  EXPECT_THROW((void)make_weighting("bogus"), contract_error);
  EXPECT_THROW((void)make_weighting("fixed:0"), contract_error);
  EXPECT_THROW((void)make_weighting("fixed:1,2"), contract_error);
  EXPECT_THROW((void)make_weighting("two-point:5,3,0.5"), contract_error);
}

// ---------------------------------------------------------------------------
// alias_table / bin_sampler.

TEST(AliasTable, RealizesTheTargetDistributionExactly) {
  // probabilities() folds slot + alias mass back together; it must equal
  // the normalized input up to floating-point slack.
  const std::vector<double> w = {5.0, 1.0, 3.0, 0.0, 1.0};
  const alias_table table(w);
  const auto p = table.probabilities();
  ASSERT_EQ(p.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(p[i], w[i] / 10.0, 1e-12) << "bin " << i;
  }
}

TEST(AliasTable, ChiSquaredAgainstZipfTarget) {
  // Distributional sanity of the sampler itself: chi-squared against the
  // target probability vector.  df = n - 1 = 31; the 99.9% quantile of
  // chi2(31) is ~61.1, so a healthy sampler fails with p < 0.001.
  const bin_count n = 32;
  const bin_sampler sampler = make_sampler("zipf:1", n);
  const auto target = sampler.table().probabilities();
  rng_t rng(101);
  constexpr int kDraws = 200000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.sample(rng, n)];
  double chi2 = 0.0;
  for (bin_count i = 0; i < n; ++i) {
    const double expected = target[i] * kDraws;
    ASSERT_GT(expected, 5.0) << "chi-squared needs expected counts > 5";
    const double d = counts[i] - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 61.1) << "alias sampling diverges from the zipf:1 target";
}

TEST(BinSampler, UniformMatchesHistoricalBoundedStream) {
  const bin_count n = 1000;
  const bin_sampler uniform = bin_sampler::uniform();
  rng_t a(3);
  rng_t b(3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(uniform.sample(a, n), static_cast<bin_index>(bounded(b, n)));
  }
}

TEST(BinSampler, SpecParsing) {
  EXPECT_TRUE(make_sampler("uniform", 8).is_uniform());
  EXPECT_EQ(make_sampler("zipf:0.5", 8).bins(), 8u);
  EXPECT_EQ(make_sampler("hot:2,0.9", 8).label(), "hot:2,0.9");
  EXPECT_THROW((void)make_sampler("zipf", 8), contract_error);
  EXPECT_THROW((void)make_sampler("hot:9,0.5", 8), contract_error);
  EXPECT_THROW((void)make_sampler("nope:1", 8), contract_error);
}

// ---------------------------------------------------------------------------
// Registry-wide (unit, uniform) parity: the explicit default model must be
// bit-identical to never touching the model at all, for every registered
// process x the serial per-ball AND fused bulk paths.

TEST(DefaultModelParity, EveryRegisteredKindIsBitIdentical) {
  constexpr bin_count kBins = 64;
  constexpr step_count kBalls = 4000;
  for (const auto& [kind, description] : registered_process_kinds()) {
    process_spec spec;
    spec.kind = kind;
    spec.n = kBins;
    spec.param = (kind == "one-plus-beta") ? 0.5 : 2.0;

    any_process plain = make_process(spec);
    any_process modeled = make_process(spec);
    modeled.set_model(alloc_model{ball_weighting::unit(), bin_sampler::uniform()});

    rng_t rng_a(42);
    rng_t rng_b(42);
    plain.step_many(rng_a, kBalls);
    modeled.step_many(rng_b, kBalls);
    EXPECT_EQ(plain.state().loads(), modeled.state().loads()) << kind;
    EXPECT_EQ(plain.name(), modeled.name()) << kind;

    // Per-ball stepping consumes the same stream as the fused loop.
    any_process per_ball = make_process(spec);
    rng_t rng_c(42);
    for (step_count t = 0; t < kBalls; ++t) per_ball.step(rng_c);
    EXPECT_EQ(per_ball.state().loads(), modeled.state().loads()) << kind;
  }
}

TEST(GeneralizedParity, EveryRegisteredKindRunsWeightedAndSkewed) {
  // The generalized path for every registered kind: fixed weights and a
  // hot-spot sampler, per-ball vs fused bulk bit parity (the step_many
  // contract survives the widened model).
  constexpr bin_count kBins = 48;
  constexpr step_count kBalls = 3000;
  for (const auto& [kind, description] : registered_process_kinds()) {
    process_spec spec;
    spec.kind = kind;
    spec.n = kBins;
    spec.param = (kind == "one-plus-beta") ? 0.5 : 2.0;
    spec.weighting = "fixed:3";
    spec.sampler = "hot:4,0.5";

    any_process bulk = make_process(spec);
    any_process per_ball = make_process(spec);
    rng_t rng_a(7);
    rng_t rng_b(7);
    bulk.step_many(rng_a, kBalls);
    for (step_count t = 0; t < kBalls; ++t) per_ball.step(rng_b);
    EXPECT_EQ(bulk.state().loads(), per_ball.state().loads()) << kind;
    EXPECT_EQ(bulk.state().balls(), kBalls) << kind;
    EXPECT_EQ(bulk.state().total_weight(), kBalls * 3) << kind;
    EXPECT_EQ(nb::testing::total_balls(bulk.state().loads()), kBalls * 3) << kind;
  }
}

TEST(GeneralizedParity, RandomWeightsConserveTotalWeight) {
  process_spec spec;
  spec.kind = "two-choice";
  spec.n = 32;
  spec.weighting = "pareto:1.5,1000";
  any_process p = make_process(spec);
  rng_t rng(9);
  p.step_many(rng, 5000);
  EXPECT_EQ(p.state().balls(), 5000);
  EXPECT_EQ(nb::testing::total_balls(p.state().loads()), p.state().total_weight());
  EXPECT_GT(p.state().total_weight(), 5000);  // heavy tail: some weight > 1
}

// ---------------------------------------------------------------------------
// Weight-based load_state: int64 accounting, overflow guards, wide-span
// fallback.

TEST(WeightedLoadState, ExtremeWeightsAccumulateExactlyInInt64) {
  // The extreme-weight regression surface: once weights replace unit
  // increments, the run's total blows through 32 bits while per-bin loads
  // approach their own 32-bit ceiling; every observable must stay exact.
  load_state s(4);
  const weight_t w = max_ball_weight;  // 2^24
  constexpr int kBalls = 400;          // 100 per bin: loads ~ 1.7e9, near the cap
  for (int i = 0; i < kBalls; ++i) s.allocate(static_cast<bin_index>(i % 4), w);
  EXPECT_EQ(s.balls(), kBalls);
  EXPECT_EQ(s.total_weight(), static_cast<weight_t>(kBalls) * w);  // 6.7e9 > 2^32
  EXPECT_EQ(static_cast<weight_t>(s.load(0)), 100 * w);
  EXPECT_EQ(static_cast<weight_t>(s.max_load()), 100 * w);
  EXPECT_EQ(static_cast<weight_t>(s.min_load()), 100 * w);
  EXPECT_DOUBLE_EQ(s.gap(), 0.0);
  EXPECT_DOUBLE_EQ(s.average_load(), static_cast<double>(100 * w));
  // The Welford inputs downstream of gap()/underload_gap() see exact
  // doubles: total_weight / n is far outside int32 and must not have
  // wrapped on the way.
  EXPECT_GT(s.average_load(), 1.5e9);
}

TEST(WeightedLoadState, PerBinOverflowGuardFires) {
  // A bin marching toward its 32-bit ceiling must throw (not wrap) on the
  // deposit that would cross it -- with the state still consistent.
  load_state s(2);
  const weight_t w = max_ball_weight;
  const int safe = static_cast<int>(std::numeric_limits<load_t>::max() / w);  // 127
  for (int i = 0; i < safe; ++i) s.allocate(0, w);
  EXPECT_THROW(s.allocate(0, w), contract_error);
  EXPECT_EQ(static_cast<weight_t>(s.load(0)), safe * w);
  EXPECT_EQ(s.total_weight(), safe * w);
  // The merged-window path guards identically.
  std::vector<std::uint32_t> add = {1, 0};
  EXPECT_THROW(s.apply_increments(add, w), contract_error);
  add = {0, 1};
  s.apply_increments(add, w);  // the other bin still has room
  EXPECT_EQ(static_cast<weight_t>(s.load(1)), w);
}

TEST(WeightedLoadState, InvalidWeightsRejected) {
  load_state s(2);
  EXPECT_THROW(s.allocate(0, 0), contract_error);
  EXPECT_THROW(s.allocate(0, -5), contract_error);
  EXPECT_THROW(s.allocate(0, max_ball_weight + 1), contract_error);
}

TEST(WeightedLoadState, WideSpanFallsBackToExactScans) {
  // One huge ball blows the dense level window; min/max/sorted queries
  // must degrade to exact scans, not garbage.
  load_state s(8);
  s.allocate(1);  // unit ball first: dense path
  EXPECT_TRUE(s.levels_valid());
  const weight_t w = level_index::max_dense_span + 7;
  s.allocate(3, w);
  EXPECT_FALSE(s.levels_valid());
  EXPECT_EQ(s.max_load(), w);
  EXPECT_EQ(s.min_load(), 0);
  EXPECT_EQ(s.total_weight(), w + 1);
  const auto sorted = s.sorted_normalized_desc();
  ASSERT_EQ(sorted.size(), 8u);
  EXPECT_DOUBLE_EQ(sorted.front(), static_cast<double>(w) - s.average_load());
  EXPECT_DOUBLE_EQ(sorted.back(), 0.0 - s.average_load());
  EXPECT_TRUE(std::is_sorted(sorted.rbegin(), sorted.rend()));
  EXPECT_EQ(s.overloaded_count(), 1u);
  // Unit allocations after saturation stay exact through the scans.
  s.allocate(5);
  EXPECT_EQ(s.min_load(), 0);
  EXPECT_EQ(s.load(5), 1);
  // reset() restores the dense index.
  s.reset();
  EXPECT_TRUE(s.levels_valid());
  EXPECT_EQ(s.total_weight(), 0);
}

TEST(WeightedLoadState, ModerateWeightsKeepTheDenseIndex) {
  // Weighted jumps inside the dense cap keep level queries O(1) and
  // identical to a from-scratch rebuild.
  load_state s(16);
  rng_t rng(3);
  const ball_weighting w = ball_weighting::two_point(1, 37, 0.3);
  for (int i = 0; i < 2000; ++i) {
    deposit(s, w, static_cast<bin_index>(bounded(rng, 16)), rng);
  }
  EXPECT_TRUE(s.levels_valid());
  level_index rebuilt;
  ASSERT_TRUE(rebuilt.rebuild(s.loads()));
  EXPECT_EQ(s.levels().min_level(), rebuilt.min_level());
  EXPECT_EQ(s.levels().max_level(), rebuilt.max_level());
  for (load_t l = rebuilt.min_level(); l <= rebuilt.max_level(); ++l) {
    EXPECT_EQ(s.levels().count_at(l), rebuilt.count_at(l)) << "level " << l;
  }
}

// ---------------------------------------------------------------------------
// Engine invariants for the generalized paths: pure function of
// (config, model, seed); identical across thread counts and ISA backends.

std::vector<load_t> run_weighted_batch_shard(std::size_t threads, kernel_isa isa,
                                             const std::string& weighting,
                                             const std::string& sampler) {
  const bin_count n = 512;
  const step_count m = 100000;
  b_batch process(n, 8192);
  process.set_model(make_model(weighting, sampler, n));
  shard_engine engine(shard_options{.threads = threads, .shards = 8, .min_window = 1024,
                                    .lanes = 4, .isa = isa});
  rng_t rng(77);
  engine.step_many(process, rng, m);
  return process.state().loads();
}

TEST(GeneralizedEngines, ShardEngineThreadAndIsaInvariantUnderAliasSampling) {
  const auto base = run_weighted_batch_shard(1, kernel_isa::scalar, "fixed:2", "zipf:1");
  EXPECT_EQ(base, run_weighted_batch_shard(4, kernel_isa::scalar, "fixed:2", "zipf:1"));
  EXPECT_EQ(base, run_weighted_batch_shard(2, kernel_isa::auto_detect, "fixed:2", "zipf:1"));
  // Sanity: the run moved weight 2 per ball.
  EXPECT_EQ(nb::testing::total_balls(base), 200000);
}

std::vector<load_t> run_weighted_batch_kernel(kernel_isa isa, const std::string& sampler) {
  const bin_count n = 512;
  const step_count m = 100000;
  b_batch process(n, 8192);
  process.set_model(make_model("fixed:2", sampler, n));
  shard_engine engine(shard_options{.shards = 1, .min_window = 1024, .lanes = 4, .isa = isa});
  rng_t rng(78);
  engine.step_many(process, rng, m);
  return process.state().loads();
}

TEST(GeneralizedEngines, KernelEngineIsaInvariantUnderAliasSampling) {
  const auto scalar = run_weighted_batch_kernel(kernel_isa::scalar, "zipf:1");
  if (kernel_isa_supported(kernel_isa::avx2)) {
    EXPECT_EQ(scalar, run_weighted_batch_kernel(kernel_isa::avx2, "zipf:1"));
  }
  if (kernel_isa_supported(kernel_isa::avx512)) {
    EXPECT_EQ(scalar, run_weighted_batch_kernel(kernel_isa::avx512, "zipf:1"));
  }
  EXPECT_EQ(nb::testing::total_balls(scalar), 200000);
}

TEST(GeneralizedEngines, AliasSamplingSkewsAllocationToHotBins) {
  // Distributional sanity end-to-end: under hot:1,0.9 the hot bin's two
  // candidate samples are both almost always bin 0, so even two-choice
  // must pile weight onto it.
  const bin_count n = 64;
  two_choice p(n);
  p.set_model(make_model("unit", "hot:1,0.9", n));
  rng_t rng(5);
  step_many(p, rng, 20000);
  EXPECT_GT(p.state().load(0), 10000);
}

// ---------------------------------------------------------------------------
// warn_once fallback diagnostics (satellite: no silent scalar fallback).

TEST(GeneralizedEngines, RandomWeightingFallsBackSeriallyWithDiagnostic) {
  const bin_count n = 128;
  const step_count m = 50000;
  b_batch process(n, 8192);
  process.set_model(make_model("pareto:1.5,100", "uniform", n));
  const std::string key = "shard-engine-weighted/" + process.name();

  shard_engine engine(shard_options{.threads = 2, .shards = 4, .min_window = 1024});
  rng_t rng(31);
  engine.step_many(process, rng, m);
  EXPECT_TRUE(warned(key)) << "expected the one-time weighted-fallback diagnostic";

  // The fallback IS the serial fused loop: bit-identical to step_many on
  // the same stream.
  b_batch serial(n, 8192);
  serial.set_model(make_model("pareto:1.5,100", "uniform", n));
  rng_t rng2(31);
  step_many(serial, rng2, m);
  EXPECT_EQ(process.state().loads(), serial.state().loads());
}

TEST(GeneralizedEngines, KernelEngineRandomWeightingFallsBackSeriallyWithDiagnostic) {
  const bin_count n = 128;
  b_batch process(n, 8192);
  process.set_model(make_model("two-point:1,50,0.2", "uniform", n));
  const std::string key = "shard-engine-weighted/" + process.name();
  shard_engine engine(shard_options{.shards = 1, .min_window = 1024});
  rng_t rng(32);
  engine.step_many(process, rng, 50000);
  EXPECT_TRUE(warned(key));

  b_batch serial(n, 8192);
  serial.set_model(make_model("two-point:1,50,0.2", "uniform", n));
  rng_t rng2(32);
  step_many(serial, rng2, 50000);
  EXPECT_EQ(process.state().loads(), serial.state().loads());
}

// ---------------------------------------------------------------------------
// Model plumbing: any_process, registry, drivers, sweeps.

TEST(ModelPlumbing, AnyProcessForwardsTheModel) {
  any_process p = two_choice(16);
  EXPECT_TRUE(p.model().is_default());
  p.set_model(make_model("fixed:5", "uniform", 16));
  EXPECT_EQ(p.model().weighting.fixed_weight(), 5);
  // Clones carry the model.
  any_process q = p;
  EXPECT_EQ(q.model().weighting.fixed_weight(), 5);
}

TEST(ModelPlumbing, SamplerBinMismatchThrows) {
  two_choice p(16);
  EXPECT_THROW(p.set_model(make_model("unit", "zipf:1", 8)), contract_error);
}

TEST(ModelPlumbing, RepeatedRunsApplyModelSpecs) {
  campaign_options opt;
  opt.repeats = 3;
  opt.seed = 5;
  opt.threads = 1;
  process_spec spec{"two-choice", 64};
  spec.weighting = "fixed:4";
  spec.sampler = "zipf:0.5";
  const std::vector<campaign_config> configs = {{"weighted", nullptr, 6400, spec}};
  const auto result = run_campaign(configs, opt);
  ASSERT_EQ(result.cells.size(), 3u);
  for (const auto& r : result.cells) {
    EXPECT_EQ(r.balls, 6400);
    // Weighted gap: max load minus average weight -- with weight 4 the
    // per-bin loads are multiples of 4, so the gap is too.
    EXPECT_EQ(std::fmod(r.gap, 4.0), 0.0);
  }
  // Deterministic: the same options reproduce bit-identically.
  const auto again = run_campaign(configs, opt);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(result.cells[i].gap, again.cells[i].gap);
}

TEST(ModelPlumbing, SweepGridExpandsModelAxes) {
  sweep_grid grid;
  grid.kinds = {"two-choice"};
  grid.bins = {32};
  grid.weightings = {"unit", "fixed:2"};
  grid.samplers = {"uniform", "zipf:1"};
  const auto points = expand_grid(grid);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].label, "two-choice/0@n=32");  // defaults: historical label
  EXPECT_EQ(points[1].label, "two-choice/0@n=32|s=zipf:1");
  EXPECT_EQ(points[2].label, "two-choice/0@n=32|w=fixed:2");
  EXPECT_EQ(points[3].label, "two-choice/0@n=32|w=fixed:2|s=zipf:1");
  EXPECT_EQ(points[3].process.weighting, "fixed:2");
  EXPECT_EQ(points[3].process.sampler, "zipf:1");
}

TEST(ModelPlumbing, MidRunOverflowPropagatesOutOfPoolWorkers) {
  // A weighted cell whose per-bin loads cross the guarded 32-bit cap must
  // surface as contract_error on the caller's thread -- not terminate the
  // process from inside a noexcept pool task.
  sweep_grid grid;
  grid.kinds = {"one-choice"};
  grid.bins = {2};
  grid.m_override = 300;  // ~150 balls/bin * 2^24 > 2^31: overflows mid-run
  grid.weightings = {"fixed:16777216"};
  campaign_options opt;
  opt.repeats = 2;
  opt.threads = 2;
  EXPECT_THROW((void)run_campaign(grid, opt), contract_error);

  // Same through an explicit one-configuration list.
  process_spec spec{"one-choice", 2};
  spec.weighting = "fixed:16777216";
  const std::vector<campaign_config> configs = {{"overflow", nullptr, 300, spec}};
  EXPECT_THROW((void)run_campaign(configs, opt), contract_error);
}

TEST(ModelPlumbing, CampaignRunsWeightedCellsDeterministically) {
  sweep_grid grid;
  grid.kinds = {"b-batch"};
  grid.params = {256.0};
  grid.bins = {64};
  grid.m_override = 6400;
  grid.weightings = {"unit", "fixed:3"};
  grid.samplers = {"uniform", "hot:4,0.6"};
  campaign_options opt;
  opt.repeats = 2;
  opt.seed = 21;
  opt.threads = 2;
  const auto a = run_campaign(grid, opt);
  const auto b = run_campaign(grid, opt);
  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_EQ(a.configs.size(), 4u);
  // The weighted legs carry 3x the weight; mean max load reflects it.
  EXPECT_GT(a.configs[2].aggregate.max_load().mean(),
            2.0 * a.configs[0].aggregate.max_load().mean());
}

}  // namespace
