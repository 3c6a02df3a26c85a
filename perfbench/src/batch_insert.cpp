// batch_insert: the paper-scale b-Batch regime on the serial kernel engine.
//
// b-Batch with n = 10^6 bins and b = n runs through run_engine's kernel
// engine (one thread, best ISA), driven one window (= one batch) at a time
// with one gap / underload gap / median observation per window, like the
// throughput bench's scale leg.  A run restarts from empty every
// m = 1000 n balls.  The 4 MB load array exceeds a core's L2, and nearly
// all the work sits in the window layers: compact_snapshot::assign,
// kernel_run and b_batch::commit_window.
//
// Untraced, windows are timed in chunks; events_per_s is the median chunk
// rate.  Traced, every window is replayed through the same public calls the
// kernel engine makes (assign, kernel_run, commit_window), with a shadow
// load_state fed the same increments through apply_increments; the replay
// must end bit-identical to the engine run of the untraced phase.
#include "common.hpp"

namespace perfbench {
namespace {

struct sizes {
  nb::bin_count n;
  std::int64_t windows_per_run;  ///< m = windows_per_run * n balls per run
  std::int64_t chunk;            ///< windows per timed chunk (divides windows_per_run)
};

sizes sizes_for(bool toy) { return toy ? sizes{8192, 1000, 25} : sizes{1000000, 1000, 25}; }

nb::engine_config engine_cfg() {
  nb::engine_config e;
  e.use_kernel = true;
  return e;
}

/// Bytes one kernel ball moves, as computed from the data layout: two
/// 1-byte snapshot gathers and a 4-byte read-modify-write of its counter.
constexpr double kComputedBytesPerBall = 2.0 + 8.0;

double observe(const nb::b_batch& p) {
  const nb::load_state& s = p.state();
  return s.gap() + s.underload_gap() + median_normalized(s);
}

/// The untraced engine run: the state a traced replay must reproduce.
struct engine_run {
  std::unique_ptr<nb::b_batch> process;
  std::unique_ptr<nb::run_engine> engine;
  nb::rng_t rng{0};
  std::int64_t windows_in_run = 0;  ///< windows since the last restart
  std::int64_t windows_total = 0;   ///< windows including warm-up and restarts

  void start(nb::bin_count n, std::uint64_t seed) {
    process = std::make_unique<nb::b_batch>(n, static_cast<nb::step_count>(n));
    engine = std::make_unique<nb::run_engine>(engine_cfg());
    rng = nb::rng_t(seed);
    windows_in_run = 0;
    windows_total = 0;
  }
  /// One window through the engine, plus its observation.
  double window() {
    engine->step(*process, rng, process->snapshot_window());
    ++windows_in_run;
    ++windows_total;
    return observe(*process);
  }
};

/// Checks Σloads and the ball count of the current run against m.
void check_run(const nb::b_batch& p, std::int64_t windows, nb::bin_count n, checker& checks) {
  const std::int64_t m = windows * static_cast<std::int64_t>(n);
  checks.expect(load_sum(p.state().loads()) == checks.expected(m),
                "batch_insert: sum of loads != m = " + std::to_string(m));
  checks.expect(p.state().balls() == m, "batch_insert: ball count != m");
}

/// Per-window scratch of the hand replay.
struct replay_state {
  nb::compact_snapshot snapshot;
  std::vector<std::uint32_t> inc;
  std::int64_t kernel_balls = 0;
  std::int64_t balls = 0;
};

/// Replays one window exactly as engine_detail::walk_windows and the
/// kernel engine route it: eligible windows (>= min_window, >= n/4 balls,
/// snapshot span <= 255) take one master-stream token and the kernel,
/// everything else the serial fused loop.  Returns true when the window
/// applied increments (so the shadow state must get them too).
bool replay_window(nb::b_batch& p, nb::rng_t& rng, replay_state& r, tracer* t) {
  const nb::engine_config cfg = engine_cfg();
  const nb::kernel_options kopt{};
  const nb::step_count k = p.snapshot_window();
  const nb::bin_count n = p.state().n();
  r.balls += k;
  bool ok = k >= kopt.min_window && k * 4 >= static_cast<nb::step_count>(n);
  {
    const scoped_span s(t, "load_vector.snapshot");
    ok = ok && r.snapshot.assign(p.window_snapshot());
  }
  if (!ok) {
    const scoped_span s(t, "process.serial_window");
    nb::step_many(p, rng, k);
    return false;
  }
  const std::uint64_t token = rng.next();
  {
    const scoped_span s(t, "process.zero_increments");
    r.inc.assign(n, 0);
  }
  {
    const scoped_span s(t, "kernel.run");
    nb::kernel_run(nb::resolve_kernel_isa(cfg.isa), cfg.lanes, n, r.snapshot.data(), r.inc.data(),
                   k, token);
  }
  {
    const scoped_span s(t, "noise.commit_window");
    p.commit_window(r.inc, k);
  }
  r.kernel_balls += k;
  return true;
}

/// Short untimed identity check run in every mode: `windows` engine
/// windows against the same windows replayed by hand.
void check_replay_identity(nb::bin_count n, std::uint64_t seed, int windows, checker& checks) {
  engine_run a;
  a.start(n, seed);
  nb::b_batch b(n, static_cast<nb::step_count>(n));
  nb::rng_t rng(seed);
  replay_state r;
  for (int w = 0; w < windows; ++w) {
    a.window();
    replay_window(b, rng, r, nullptr);
  }
  checks.expect(a.process->state().loads() == b.state().loads() && a.rng.state() == rng.state(),
                "batch_insert: hand replay differs from the engine run");
}

}  // namespace

void run_batch_insert(const run_options& opt, run_output& out, tracer* t) {
  const sizes sz = sizes_for(opt.toy);
  const nb::bin_count n = sz.n;
  const std::uint64_t run_seed = nb::derive_seed(opt.seed, 0);
  const std::uint64_t check_seed = nb::derive_seed(opt.seed, 1);
  {
    const nb::run_engine probe(engine_cfg());
    out.note_str("engine_fingerprint", probe.fingerprint());
    out.note_str("engine_churn_fingerprint", probe.churn_fingerprint());
  }
  out.note("run_seed", std::to_string(run_seed));
  out.note("check_seed", std::to_string(check_seed));
  out.note("n", n);
  out.note("b", n);
  out.note("m_per_run", static_cast<double>(sz.windows_per_run) * n);

  // Set-up: process and engine construction plus one warm-up window,
  // several times; the last one carries on into the timed phase.
  engine_run run;
  std::vector<double> setup;
  double sink = 0.0;
  const int setups = opt.trace ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    run.process.reset();  // tear the previous system down off the clock
    run.engine.reset();
    const auto t0 = clock_type::now();
    run.start(n, run_seed);
    sink += run.window();
    setup.push_back(since(t0));
  }

  // Timed phase: whole chunks of windows until the deadline; restarts and
  // their checks sit between chunks, off the clock.
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  timed_phase timed;
  const auto deadline = clock_type::now() + std::chrono::duration<double>(budget);
  while (clock_type::now() < deadline) {
    if (run.windows_in_run == sz.windows_per_run) {
      check_run(*run.process, run.windows_in_run, n, out.checks);
      run.process->reset();
      run.windows_in_run = 0;
    }
    const std::int64_t windows = std::min(sz.chunk, sz.windows_per_run - run.windows_in_run);
    timed.chunk(windows * static_cast<std::int64_t>(n), [&] {
      for (std::int64_t w = 0; w < windows; ++w) sink += run.window();
    });
  }
  check_run(*run.process, run.windows_in_run, n, out.checks);
  out.note("windows", static_cast<double>(run.windows_total));
  out.note("timed_chunks", static_cast<double>(timed.rates.size()));
  out.note("chunk_rate_q1", quantile(timed.rates, 0.25));
  out.note("chunk_rate_q3", quantile(timed.rates, 0.75));
  out.note("timed_events", static_cast<double>(timed.events));
  out.note("final_loads_fnv", std::to_string(digest(run.process->state().loads())));
  out.note("observation_sink", sink);

  check_replay_identity(n, check_seed, 4, out.checks);

  if (t == nullptr) {
    add_end_to_end(out, median(timed.rates), setup, timed);
    return;
  }
  const double untraced_rate = timed.rate();

  // Traced replay of the same windows from the same seed.
  nb::b_batch p(n, static_cast<nb::step_count>(n));
  nb::rng_t rng(run_seed);
  {
    // The warm-up window goes through the engine, as in set-up.
    nb::run_engine warm(engine_cfg());
    warm.step(p, rng, p.snapshot_window());
  }
  nb::load_state shadow = p.state();
  replay_state r;
  std::int64_t in_run = 1;
  double traced_sink = observe(p);
  {
    const scoped_span whole(t, "batch_insert.replay");
    for (std::int64_t w = 1; w < run.windows_total; ++w) {
      if (in_run == sz.windows_per_run) {
        check_run(p, in_run, n, out.checks);
        p.reset();
        shadow.reset();
        in_run = 0;
      }
      bool applied = false;
      {
        const scoped_span window(t, "process.window");
        applied = replay_window(p, rng, r, t);
        const scoped_span s(t, "load_vector.observe");
        traced_sink += observe(p);
      }
      if (applied) {
        const scoped_span s(t, "load_vector.apply_shadow");
        shadow.apply_increments(r.inc);
      } else {
        shadow = p.state();
      }
      ++in_run;
    }
  }
  out.checks.expect(p.state().loads() == run.process->state().loads() &&
                        rng.state() == run.rng.state(),
                    "batch_insert: traced replay is not bit-identical to the engine run");
  out.checks.expect(shadow.loads() == p.state().loads(),
                    "batch_insert: shadow apply_increments state differs from the process");
  out.checks.expect(traced_sink == sink,
                    "batch_insert: traced per-window observations differ from the engine run's");

  const auto ms = [](double s) { return s * 1e3; };
  const std::vector<double> window = t->durations("process.window");
  const std::vector<double> kernel = t->durations("kernel.run");
  const std::vector<double> commit = t->durations("noise.commit_window");
  const std::vector<double> apply = t->durations("load_vector.apply_shadow");
  const std::vector<double> snapshot = t->durations("load_vector.snapshot");
  const std::vector<double> obs = t->durations("load_vector.observe");
  const double window_total = sum(window);
  const double kernel_total = sum(kernel);
  const double kernel_balls = static_cast<double>(r.kernel_balls);
  const double traced_rate = static_cast<double>(r.balls) / window_total;
  out.add("process.windows", static_cast<double>(window.size()), "count");
  out.add("process.kernel_ball_frac", kernel_balls / static_cast<double>(r.balls), "ratio");
  out.add("process.window_ms_p50", ms(quantile(window, 0.5)), "ms");
  out.add("process.window_ms_p99", ms(quantile(window, 0.99)), "ms");
  out.add("load_vector.snapshot_ms", ms(median(snapshot)), "ms");
  out.add("kernel.run_ms", ms(median(kernel)), "ms");
  out.add("kernel.balls_per_s", kernel_balls / kernel_total, "1/s");
  out.add("kernel.computed_gb_per_s", kComputedBytesPerBall * kernel_balls / kernel_total / 1e9,
          "GB/s");
  out.add("noise.batch_commit_ms", ms(median(commit)), "ms");
  out.add("load_vector.apply_ms", ms(median(apply)), "ms");
  out.add("noise.stale_refresh_ms", ms(median(commit) - median(apply)), "ms");
  out.add("noise.batch_commit_frac", sum(commit) / window_total, "ratio");
  out.add("load_vector.observe_ms", ms(median(obs)), "ms");
  out.add("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
  out.note("phase_coverage", (sum(snapshot) + kernel_total + sum(commit) + sum(obs)) / window_total);
  out.note("traced_events_per_s", traced_rate);
  out.note("untraced_events_per_s", untraced_rate);
  out.note("window_samples", static_cast<double>(window.size()));
  out.note("ratio_bases",
           "{\"trace.overhead_frac\": \"untraced engine run of the same windows, same seed\", "
           "\"process.kernel_ball_frac\": \"all balls of the traced windows\", "
           "\"noise.batch_commit_frac\": \"summed traced window time\"}");

  // The campaign path's layers (exp, the noise decide rules, rng draws,
  // deposits) ride on this run: the noisy_campaign workload itself is too
  // unsteady on a shared host to gate on (see README.md).
  (void)measure_campaign_layers(opt, false, out, t);
}

}  // namespace perfbench
