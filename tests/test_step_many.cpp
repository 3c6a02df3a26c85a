// step/step_many parity: for every process in the registry and every
// concrete strategy variant, the bulk path must consume randomness in the
// same order as the per-ball path, so a fixed seed yields an identical
// final load vector (and an identically positioned generator) no matter
// how the balls are chunked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "test_support.hpp"

namespace {

using namespace nb;
using nb::testing::fnv1a;
using nb::testing::param_for;

/// Steps `bulk` through m balls in a deliberately uneven chunk pattern
/// (1, 2, 3, ... plus a zero-size chunk) while `per_ball` walks one ball
/// at a time, then requires identical loads and identical RNG positions.
template <allocation_process P>
void expect_parity(P per_ball, P bulk, step_count m, std::uint64_t seed) {
  rng_t rng_a(seed);
  rng_t rng_b(seed);
  for (step_count t = 0; t < m; ++t) per_ball.step(rng_a);
  step_count done = 0;
  step_count next = 1;
  step_many(bulk, rng_b, 0);  // zero-count bulk call is a no-op
  while (done < m) {
    const step_count chunk = std::min(next, m - done);
    step_many(bulk, rng_b, chunk);
    done += chunk;
    ++next;
  }
  ASSERT_EQ(per_ball.state().balls(), bulk.state().balls());
  EXPECT_EQ(per_ball.state().loads(), bulk.state().loads())
      << per_ball.name() << ": bulk path diverged from per-ball path";
  EXPECT_EQ(per_ball.state().gap(), bulk.state().gap());
  EXPECT_EQ(rng_a.next(), rng_b.next())
      << per_ball.name() << ": bulk path consumed a different amount of entropy";
}

template <allocation_process P>
void expect_parity(const P& process, step_count m, std::uint64_t seed) {
  expect_parity(process, process, m, seed);
}

/// Pinned serial streams: for every registered kind (n = 64, param_for,
/// 2500 per-ball steps from seed fnv1a(kind)), the FNV-1a fold of the
/// final loads and the generator's next word.  The parity check above
/// compares two paths of one build, so a draw-order change that hits both
/// passes it; these values catch it.  A new kind adds its row here.
struct pinned_stream {
  const char* kind;
  std::uint64_t loads_fnv;
  std::uint64_t next_word;
};

constexpr pinned_stream kPinnedStreams[] = {
    {"one-choice", 14260644953111135901ULL, 2029188297944185721ULL},
    {"two-choice", 3621287285401047303ULL, 12003462962011772495ULL},
    {"d-choice", 13621655944047548507ULL, 12815942893583853657ULL},
    {"one-plus-beta", 9756065508455157749ULL, 13456233767981415668ULL},
    {"g-bounded", 8658360795422747759ULL, 7647780033968647541ULL},
    {"g-myopic", 5900615494502603855ULL, 3553348675423585428ULL},
    {"g-adv-boost", 10952777019290401347ULL, 5800700295810198662ULL},
    {"g-adv-index", 1285363569407153547ULL, 7199793253379301098ULL},
    {"g-adv-correct", 11441853551378139865ULL, 10824797053999678207ULL},
    {"g-adv-load", 16425295664222136803ULL, 16425612266192920050ULL},
    {"g-adv-load-uniform", 212855608474072345ULL, 5344495053098051238ULL},
    {"sigma-noisy-load", 6347262634509425501ULL, 9886950938102476779ULL},
    {"sigma-noisy-gauss", 7189912819105468477ULL, 12668802460330201097ULL},
    {"b-batch", 17486342078490686485ULL, 1312063769863963708ULL},
    {"tau-delay", 388752497821829293ULL, 10994959924006148045ULL},
    {"tau-delay-oldest", 16295619102276465057ULL, 9926097092901683682ULL},
    {"tau-delay-random", 10229331572552277389ULL, 14567755366532922127ULL},
    {"mean-thinning", 9795795885041691013ULL, 4625995905541046458ULL},
    {"noisy-mean-thinning", 15479431895128049569ULL, 10948380423640628169ULL},
    {"noisy-mean-thinning-myopic", 7806735219321199829ULL, 9564077789520262441ULL},
    {"noisy-one-plus-beta", 11434801008429213221ULL, 14399364414781243980ULL},
};

TEST(StepMany, EveryRegisteredProcessMatchesPerBallPath) {
  for (const auto& [kind, description] : registered_process_kinds()) {
    process_spec spec;
    spec.kind = kind;
    spec.n = 64;
    spec.param = param_for(kind);
    expect_parity(make_process(spec), 2500, 99 + std::hash<std::string>{}(kind));

    any_process process = make_process(spec);
    rng_t rng(fnv1a(kind));
    for (step_count t = 0; t < 2500; ++t) process.step(rng);
    const auto* pinned = std::find_if(std::begin(kPinnedStreams), std::end(kPinnedStreams),
                                      [&](const pinned_stream& row) { return row.kind == kind; });
    const std::uint64_t loads_fnv = fnv1a(process.state().loads());
    const std::uint64_t next_word = rng.next();
    if (pinned == std::end(kPinnedStreams)) {
      ADD_FAILURE() << kind << ": no pinned stream; measured {\"" << kind << "\", " << loads_fnv
                    << "ULL, " << next_word << "ULL},";
      continue;
    }
    EXPECT_EQ(loads_fnv, pinned->loads_fnv) << kind << ": serial stream changed";
    EXPECT_EQ(next_word, pinned->next_word) << kind << ": serial entropy use changed";
  }
}

TEST(StepMany, BasicProcessVariants) {
  expect_parity(one_choice(32), 2000, 1);
  expect_parity(two_choice(32), 2000, 2);
  expect_parity(d_choice(32, 5), 2000, 3);
  expect_parity(one_plus_beta(32, 0.3), 2000, 4);
}

TEST(StepMany, NoiseWrapperVariants) {
  expect_parity(g_adv_comp<always_correct>(32, 4), 2000, 5);
  expect_parity(g_adv_comp<overload_booster>(32, 4), 2000, 6);
  expect_parity(g_adv_comp<index_bias>(32, 4), 2000, 7);
  expect_parity(g_adv_load<truthful_estimates>(32, 4), 2000, 8);
  expect_parity(rho_noisy_comp<rho_constant>(32, rho_constant(0.8)), 2000, 9);
  expect_parity(rho_noisy_comp<rho_step>(32, rho_step(2, 0.25)), 2000, 10);
  expect_parity(noisy_mean_thinning<thinning_random>(32, 2), 2000, 11);
  expect_parity(tau_delay<delay_random>(32, 9), 2000, 12);
}

TEST(StepMany, BatchBoundaryCases) {
  // b == 1 (refresh every ball), b a divisor of m, b > m (single batch),
  // and chunks that straddle many boundaries at once.
  expect_parity(b_batch(16, 1), 1000, 21);
  expect_parity(b_batch(16, 50), 1000, 22);
  expect_parity(b_batch(16, 5000), 1000, 23);
  b_batch per_ball(16, 25);
  b_batch bulk = per_ball;
  rng_t rng_a(24);
  rng_t rng_b(24);
  for (step_count t = 0; t < 400; ++t) per_ball.step(rng_a);
  step_many(bulk, rng_b, 400);  // one chunk spanning 16 whole batches
  EXPECT_EQ(per_ball.state().loads(), bulk.state().loads());
  EXPECT_EQ(per_ball.reported_load(3), bulk.reported_load(3));
}

TEST(StepMany, DelayWindowCases) {
  // tau == 1 (no window), window larger than the run (pure fill phase),
  // and resuming bulk execution from a half-filled window.
  expect_parity(tau_delay<delay_adversarial>(16, 1), 600, 31);
  expect_parity(tau_delay<delay_adversarial>(16, 2000), 600, 32);
  expect_parity(tau_delay<delay_oldest>(16, 64), 600, 33);
  tau_delay<delay_adversarial> per_ball(16, 40);
  tau_delay<delay_adversarial> bulk = per_ball;
  rng_t rng_a(34);
  rng_t rng_b(34);
  for (step_count t = 0; t < 20; ++t) per_ball.step(rng_a);  // half-filled
  step_many(bulk, rng_b, 20);
  for (step_count t = 0; t < 500; ++t) per_ball.step(rng_a);
  step_many(bulk, rng_b, 500);
  EXPECT_EQ(per_ball.state().loads(), bulk.state().loads());
  EXPECT_EQ(per_ball.stale_load(5), bulk.stale_load(5));
}

TEST(StepMany, ErasedPathUsesBulkLoop) {
  // any_process::step_many must agree with the wrapped process's per-ball
  // path (one indirect call per chunk, fused loop behind it).
  two_choice direct(48);
  any_process erased(direct);
  rng_t rng_a(41);
  rng_t rng_b(41);
  for (step_count t = 0; t < 3000; ++t) direct.step(rng_a);
  erased.step_many(rng_b, 3000);
  EXPECT_EQ(direct.state().loads(), erased.state().loads());
}

TEST(StepMany, SimulateMatchesPerBallLoop) {
  // simulate() now routes through step_many; it must agree with a manual
  // per-ball loop for both templated and type-erased processes.
  g_bounded manual(32, 2);
  g_bounded driven(32, 2);
  rng_t rng_a(51);
  rng_t rng_b(51);
  for (step_count t = 0; t < 4000; ++t) manual.step(rng_a);
  const auto result = simulate(driven, 4000, rng_b);
  EXPECT_EQ(manual.state().loads(), driven.state().loads());
  EXPECT_DOUBLE_EQ(result.gap, manual.state().gap());
  EXPECT_EQ(result.min_load, manual.state().min_load());
}

TEST(StepMany, RecordTraceMatchesPerBallLoop) {
  // The chunked recorder must sample the same states as the per-ball
  // recorder did: same trace length, same sample times, same gaps.
  two_choice chunked(32);
  two_choice manual(32);
  rng_t rng_a(61);
  rng_t rng_b(61);
  trace_options opt;
  opt.sample_interval = 70;  // not a divisor of m
  const auto tr = record_trace(chunked, 1000, rng_a, opt);
  std::vector<trace_point> expected;
  for (step_count t = 0; t < 1000; ++t) {
    manual.step(rng_b);
    if (manual.state().balls() % opt.sample_interval == 0) {
      expected.push_back({manual.state().balls(), manual.state().gap(), 0, 0, 0, 0, false});
    }
  }
  expected.push_back({manual.state().balls(), manual.state().gap(), 0, 0, 0, 0, false});
  ASSERT_EQ(tr.points.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tr.points[i].t, expected[i].t);
    EXPECT_DOUBLE_EQ(tr.points[i].gap, expected[i].gap);
  }
  EXPECT_EQ(chunked.state().loads(), manual.state().loads());
}

/// A process with no member step_many: the free-function fallback must
/// loop over step() and still satisfy the allocation_process concept.
class fallback_only_process {
 public:
  explicit fallback_only_process(bin_count n) : state_(n) {}
  void step(rng_t& rng) { state_.allocate(sample_bin(rng, state_.n())); }
  [[nodiscard]] const load_state& state() const noexcept { return state_; }
  void reset() { state_.reset(); }
  [[nodiscard]] std::string name() const { return "fallback-only"; }

 private:
  load_state state_;
};

static_assert(allocation_process<fallback_only_process>);
static_assert(!bulk_steppable<fallback_only_process>);
static_assert(bulk_steppable<two_choice>);
static_assert(bulk_steppable<any_process>);

TEST(StepMany, FallbackLoopsOverStep) {
  expect_parity(fallback_only_process(32), 1500, 71);
  // The fallback process also works through type erasure.
  any_process erased{fallback_only_process(32)};
  rng_t rng(72);
  erased.step_many(rng, 500);
  EXPECT_EQ(erased.state().balls(), 500);
}

TEST(StepMany, CheckpointChunksCoverRunExactly) {
  // Start at 50 balls, run 1000 more with checkpoints every 300:
  // boundaries at 300, 600, 900 -> chunks 250, 300, 300, 150.
  std::vector<step_count> chunks;
  step_count balls = 50;
  step_count remaining = 1000;
  while (remaining > 0) {
    const step_count c = checkpoint_chunk(balls, remaining, 300);
    chunks.push_back(c);
    balls += c;
    remaining -= c;
  }
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0], 250);
  EXPECT_EQ(chunks[1], 300);
  EXPECT_EQ(chunks[2], 300);
  EXPECT_EQ(chunks[3], 150);
  EXPECT_EQ(balls, 1050);
  EXPECT_EQ(checkpoint_chunk(0, 0, 10), 0);
  EXPECT_EQ(checkpoint_chunk(7, 100, 10), 3);  // runs to the next multiple
  EXPECT_THROW(static_cast<void>(checkpoint_chunk(0, 10, 0)), contract_error);
}

}  // namespace
