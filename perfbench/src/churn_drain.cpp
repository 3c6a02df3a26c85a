// churn_drain: steady-state b-Batch churn with the drain departure channel.
//
// b-Batch with n = 10^6 bins, b = n, warmed to occupancy 8 n and then
// churned in cycles of n arrivals followed by n drain departures, through
// run_churn on the shard engine (threads = nproc, 16 shards, 8 lanes).  It
// is the only workload that exercises the shard fork/join, the
// shard_deltas merge, the departure kernel with its clamp/repair and
// commit_departures, beside the same commit layer batch_insert uses.
// Warm-up to occupancy counts as set-up.
//
// Untraced, run_churn is called on whole chunks of cycles (cycle
// boundaries sit at absolute multiples of `cycle`, so chunked calls issue
// the same engine calls as one long run); events_per_s is the median chunk
// rate, an event being one arrival or one departure.  Traced, the same
// cycles are driven by hand through run_engine::step and
// run_engine::depart, then replayed at threads = 1; both must end
// bit-identical to the untraced run.
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

struct sizes {
  nb::bin_count n;
  std::int64_t cycles_per_chunk;
};

sizes sizes_for(bool toy) { return toy ? sizes{8192, 8} : sizes{1000000, 4}; }

constexpr std::int64_t kOccupancyPerBin = 8;

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

nb::engine_config engine_cfg(std::size_t threads) {
  nb::engine_config e;
  e.threads_per_run = threads;
  e.shards = 16;
  e.lanes = 8;
  return e;
}

nb::process_spec spec_for(nb::bin_count n) {
  nb::process_spec spec;
  spec.kind = "b-batch";
  spec.n = n;
  spec.param = static_cast<double>(n);
  spec.departures = "drain";
  return spec;
}

/// A warmed churn system driven through run_churn.
struct churn_run {
  std::unique_ptr<nb::any_process> process;
  std::unique_ptr<nb::run_engine> engine;
  nb::rng_t rng{0};
  nb::step_count occupancy = 0;
  nb::step_count cycle = 0;
  std::int64_t cycles = 0;

  void start(nb::bin_count n, std::uint64_t seed, std::size_t threads) {
    process = std::make_unique<nb::any_process>(nb::make_process(spec_for(n)));
    engine = std::make_unique<nb::run_engine>(engine_cfg(threads));
    rng = nb::rng_t(seed);
    occupancy = kOccupancyPerBin * static_cast<nb::step_count>(n);
    cycle = static_cast<nb::step_count>(n);
    nb::churn_options warm;
    warm.occupancy = occupancy;
    warm.cycle = cycle;
    (void)nb::run_churn(*process, warm, rng, *engine);
  }

  /// `count` more cycles from a cycle boundary; checks residency at every
  /// cycle boundary.
  void churn(std::int64_t count, checker& checks) {
    nb::churn_options o;
    o.occupancy = occupancy;
    o.events = count * cycle;
    o.cycle = cycle;
    o.telemetry_every = cycle;
    const nb::churn_result r =
        nb::run_churn_checkpointed(*process, o, rng, *engine, 0, nullptr, occupancy);
    for (const nb::churn_point& point : r.trajectory) {
      checks.expect(point.resident == checks.expected(occupancy),
                    "churn_drain: resident balls != occupancy at a cycle boundary");
    }
    cycles += count;
  }
};

/// Replays every cycle of `run` at threads = 1, chunked like the original;
/// returns events per second over the churn phase.
double replay_single_thread(const churn_run& run, nb::bin_count n, std::uint64_t seed,
                            std::int64_t chunk, checker& checks) {
  churn_run one;
  one.start(n, seed, 1);
  timed_phase timed;
  while (one.cycles < run.cycles) {
    const std::int64_t count = std::min(chunk, run.cycles - one.cycles);
    timed.chunk(2 * count * one.cycle, [&] { one.churn(count, checks); });
  }
  checks.expect(one.process->state().loads() == run.process->state().loads() &&
                    one.rng.state() == run.rng.state(),
                "churn_drain: threads=1 replay is not bit-identical to the threads=nproc run");
  return timed.rate();
}

}  // namespace

void run_churn_drain(const run_options& opt, run_output& out, tracer* t) {
  const sizes sz = sizes_for(opt.toy);
  const nb::bin_count n = sz.n;
  const std::size_t threads = nproc();
  const std::uint64_t run_seed = nb::derive_seed(opt.seed, 0);
  {
    const nb::run_engine probe(engine_cfg(threads));
    out.note_str("engine_fingerprint", probe.fingerprint());
    out.note_str("engine_churn_fingerprint", probe.churn_fingerprint());
  }
  out.note("run_seed", std::to_string(run_seed));
  out.note("n", n);
  out.note("b", n);
  out.note("occupancy", static_cast<double>(kOccupancyPerBin) * n);
  out.note("cycle", n);
  out.note("threads", static_cast<double>(threads));
  out.note_str("departures", "drain");

  // Set-up: process, engine and pool construction plus warm-up to
  // occupancy, several times; the last system carries on.
  churn_run run;
  std::vector<double> setup;
  const int setups = opt.trace ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    run.process.reset();  // tear the previous system down off the clock
    run.engine.reset();
    const auto t0 = clock_type::now();
    run.start(n, run_seed, threads);
    setup.push_back(since(t0));
  }
  out.checks.expect(run.process->state().balls() == run.occupancy,
                    "churn_drain: warm-up did not reach occupancy");

  // Timed phase: whole chunks of cycles until the deadline.
  timed_phase timed;
  const auto deadline = clock_type::now() + std::chrono::duration<double>(
                                                opt.trace ? opt.seconds / 4 : opt.seconds);
  while (clock_type::now() < deadline) {
    timed.chunk(2 * sz.cycles_per_chunk * run.cycle,
                [&] { run.churn(sz.cycles_per_chunk, out.checks); });
  }
  out.note("cycles", static_cast<double>(run.cycles));
  out.note("timed_chunks", static_cast<double>(timed.rates.size()));
  out.note("chunk_rate_q1", quantile(timed.rates, 0.25));
  out.note("chunk_rate_q3", quantile(timed.rates, 0.75));
  out.note("timed_events", static_cast<double>(timed.events));
  out.note("final_loads_fnv", std::to_string(digest(run.process->state().loads())));

  if (t == nullptr) {
    // Short thread-count identity check, off the clock.
    churn_run one;
    one.start(n, run_seed, 1);
    churn_run many;
    many.start(n, run_seed, threads);
    one.churn(2, out.checks);
    many.churn(2, out.checks);
    out.checks.expect(one.process->state().loads() == many.process->state().loads(),
                      "churn_drain: threads=1 and threads=nproc runs differ");
    add_end_to_end(out, median(timed.rates), setup, timed);
    return;
  }
  const double untraced_rate = timed.rate();

  // Traced: the same cycles by hand on the concrete process type (the
  // registry builds exactly this b_batch + drain model).
  nb::b_batch p(n, static_cast<nb::step_count>(n));
  p.set_model(nb::make_model("unit", "uniform", n, "drain"));
  nb::run_engine engine(engine_cfg(threads));
  nb::rng_t rng(run_seed);
  {
    const scoped_span s(t, "sim.warmup");
    engine.step(p, rng, run.occupancy);
  }
  out.checks.expect(p.state().balls() == run.occupancy,
                    "churn_drain: traced warm-up did not reach occupancy");
  // Route probes apply the engines' public eligibility rule from outside:
  // block >= min_window, 4 * block >= n, and the snapshot compacts.
  const nb::shard_options sopt{};
  const nb::step_count cap =
      static_cast<nb::step_count>(sopt.shards) * nb::shard_deltas::max_row_count;
  const auto eligible = [&](nb::step_count k) {
    return k >= sopt.min_window && k * 4 >= static_cast<nb::step_count>(n);
  };
  nb::compact_snapshot probe;
  std::int64_t arrive_kernel = 0;
  std::int64_t depart_kernel = 0;
  std::int64_t events = 0;
  for (std::int64_t c = 0; c < run.cycles; ++c) {
    const nb::step_count window = std::min({p.snapshot_window(), run.cycle, cap});
    if (eligible(window) && probe.assign(p.window_snapshot())) arrive_kernel += window;
    {
      const scoped_span cycle(t, "sim.cycle");
      {
        const scoped_span s(t, "process.arrive");
        engine.step(p, rng, run.cycle);
      }
      const nb::step_count block = std::min(run.cycle, cap);
      if (eligible(block) && probe.assign(p.state().loads())) depart_kernel += block;
      {
        const scoped_span s(t, "process.depart");
        engine.depart(p, rng, run.cycle);
      }
    }
    events += 2 * run.cycle;
    out.checks.expect(p.state().balls() == out.checks.expected(run.occupancy),
                      "churn_drain: traced cycle left resident balls != occupancy");
  }
  out.checks.expect(p.state().loads() == run.process->state().loads() &&
                        rng.state() == run.rng.state(),
                    "churn_drain: hand-driven cycles are not bit-identical to run_churn");

  const double rate_1t = replay_single_thread(run, n, run_seed, sz.cycles_per_chunk, out.checks);

  const auto ms = [](double s) { return s * 1e3; };
  // The departure probe must run between a cycle's arrivals and its
  // departures, so it sits inside the sim.cycle span (as its self time);
  // cycle times and the traced rate count only the two engine calls.
  const std::vector<double> arrive = t->durations("process.arrive");
  const std::vector<double> depart = t->durations("process.depart");
  std::vector<double> cycle(arrive.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = arrive[i] + depart[i];
  const double engine_s = sum(cycle);
  const double traced_rate = static_cast<double>(events) / engine_s;
  const double speedup = untraced_rate / rate_1t;
  const double occupancy_events = static_cast<double>(run.cycles * run.cycle);
  out.add("sim.cycle_ms_p50", ms(quantile(cycle, 0.5)), "ms");
  out.add("sim.cycle_ms_p99", ms(quantile(cycle, 0.99)), "ms");
  out.add("process.arrive_ms", ms(median(arrive)), "ms");
  out.add("process.depart_ms", ms(median(depart)), "ms");
  out.add("process.arrive_kernel_frac", static_cast<double>(arrive_kernel) / occupancy_events,
          "ratio");
  out.add("process.depart_kernel_frac", static_cast<double>(depart_kernel) / occupancy_events,
          "ratio");
  out.add("thread_pool.speedup_vs_1t", speedup, "ratio");
  out.add("thread_pool.parallel_efficiency", speedup / static_cast<double>(threads), "ratio");
  out.add("sim.warmup_s", t->total("sim.warmup"), "s");
  out.add("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
  out.note("traced_events_per_s", traced_rate);
  out.note("untraced_events_per_s", untraced_rate);
  out.note("threads1_events_per_s", rate_1t);
  out.note("cycle_samples", static_cast<double>(cycle.size()));
  out.note("ratio_bases",
           "{\"thread_pool.speedup_vs_1t\": \"the same b-batch drain cycles from the same seed "
           "through run_churn at threads=1\", "
           "\"trace.overhead_frac\": \"untraced run_churn of the same cycles, same seed\", "
           "\"process.arrive_kernel_frac\": \"all arrivals of the traced cycles\", "
           "\"process.depart_kernel_frac\": \"all departures of the traced cycles\"}");
}

}  // namespace perfbench
