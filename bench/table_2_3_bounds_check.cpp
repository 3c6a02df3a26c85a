// Shape-checks every *upper bound* row of Table 2.3 that this repo can
// exercise at laptop scale:
//
//   claim 1  g-Adv-Comp Gap = O(g + log n)        -- linear fit of gap vs g
//   claim 2  g-Adv-Comp Gap = O(g/log g loglog n) -- ratio stability, small g
//   claim 3  b-Batch   Gap = Theta(log n/log((4n/b)log n)) at b = n
//                                                 -- ratio stability across n
//   claim 4  b-Batch   Gap = Theta(b/n) for b >= n log n
//                                                 -- linear fit of gap vs b/n
//   claim 5  sigma-Noisy-Load between the paper's lower and upper bounds
//
// The measured gap cannot be expected to match the Theta-expressions with
// constant 1; what is checked is the *shape*: high R^2 for the linear
// claims and a bounded min/max ratio for the ratio claims.
#include "bench_common.hpp"

#include <cmath>

#include "core/theory/bounds.hpp"

namespace {

using namespace nb;
using namespace nb::bench;

struct verdict_row {
  std::string claim;
  std::string configuration;
  std::string statistic;
  std::string value;
  bool ok = false;
};

int run(int argc, const char* const* argv) {
  cli_parser cli(
      "table_2_3_bounds_check -- verifies the asymptotic *shapes* of the paper's Table 2.3 upper "
      "bounds against measured gaps.");
  add_standard_flags(cli);
  auto cfg_opt = parse_standard(cli, argc, argv);
  if (!cfg_opt) return 0;
  auto cfg = *cfg_opt;
  warn_model_flags_unsupported(cfg, "table_2_3_bounds_check");
  reject_campaign_file_flags(cfg, "table_2_3_bounds_check", kSeveralCampaigns);
  if (cfg.runs_override == 0 && !cfg.paper_mode()) cfg.runs_override = 5;
  const campaign_options opt = campaign_options_for(cfg);

  stopwatch total;
  std::vector<verdict_row> verdicts;

  // --- Claim 1: Gap(m) = O(g + log n), Theorem 5.12.  For g >> log n the
  // curve is linear in g; fit gap vs g for the strongest shipped adversary.
  {
    const bin_count n = 4096;
    const step_count m = 500LL * n;
    std::vector<double> gs;
    std::vector<campaign_config> cells;
    for (const load_t g : {8, 16, 32, 64, 128}) {
      gs.push_back(g);
      cells.push_back({"g", [n, g] { return any_process(g_bounded(n, g)); }, m});
    }
    const auto gaps = mean_gaps(cells, opt);
    const auto fit = fit_linear(gs, gaps);
    std::printf("claim 1 (Thm 5.12) gap vs g at n=%u: ", n);
    for (std::size_t i = 0; i < gs.size(); ++i) std::printf("g=%g->%.1f ", gs[i], gaps[i]);
    std::printf("\n  linear fit: slope=%.2f intercept=%.2f R^2=%.4f\n", fit.slope, fit.intercept,
                fit.r_squared);
    verdicts.push_back({"O(g + log n) [Thm 5.12]", "g-Bounded, n=4096, g=8..128",
                        "R^2 of linear fit", format_fixed(fit.r_squared, 4),
                        fit.r_squared > 0.98 && fit.slope > 0.5 && fit.slope < 3.0});
  }

  // --- Claim 2: Gap = O(g/log g * loglog n) for g <= log n, Theorem 9.2.
  // At fixed moderate n, the ratio gap / (g/log g * loglog n + g) must stay
  // within a constant band across g (we add +g: Corollary 11.4's tight
  // combined shape, since constants in either regime differ).
  {
    const bin_count n = 65536;
    const step_count m = 200LL * n;
    std::vector<double> ratios;
    std::vector<campaign_config> cells;
    const std::vector<load_t> gs = {2, 3, 4, 6, 8, 11};  // up to ~log n
    for (const load_t g : gs) {
      cells.push_back({"g", [n, g] { return any_process(g_bounded(n, g)); }, m});
    }
    const auto gaps = mean_gaps(cells, opt);
    std::printf("claim 2 (Thm 9.2) gap/(g/log g*loglog n + g) at n=%u:", n);
    for (std::size_t i = 0; i < gs.size(); ++i) {
      const double bound = theory::adv_comp_tight_gap(n, gs[i]);
      const double ratio = gaps[i] / bound;
      ratios.push_back(ratio);
      std::printf(" g=%d->%.2f", gs[i], ratio);
    }
    std::printf("\n");
    const auto [mn, mx] = std::minmax_element(ratios.begin(), ratios.end());
    verdicts.push_back({"O(g/log g loglog n) [Thm 9.2]", "g-Bounded, n=2^16, g=2..11",
                        "ratio max/min", format_fixed(*mx / *mn, 2), (*mx / *mn) < 2.5});
  }

  // --- Claim 3: b-Batch with b = n: Gap = Theta(log n / log log n)
  // (Theorem 10.2).  The ratio to the theory shape must be flat across n.
  {
    std::vector<double> ratios;
    std::vector<campaign_config> cells;
    const std::vector<bin_count> ns = {1024, 4096, 16384, 65536};
    for (const bin_count n : ns) {
      cells.push_back(
          {"n", [n] { return any_process(b_batch(n, n)); }, 300LL * static_cast<step_count>(n)});
    }
    const auto gaps = mean_gaps(cells, opt);
    std::printf("claim 3 (Thm 10.2) b-Batch b=n, gap/theory across n:");
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const double bound = theory::batch_gap(ns[i], ns[i]);
      const double ratio = gaps[i] / bound;
      ratios.push_back(ratio);
      std::printf(" n=%u->%.2f", ns[i], ratio);
    }
    std::printf("\n");
    const auto [mn, mx] = std::minmax_element(ratios.begin(), ratios.end());
    verdicts.push_back({"Theta(log n/loglog n) [Thm 10.2]", "b-Batch, b=n, n=2^10..2^16",
                        "ratio max/min", format_fixed(*mx / *mn, 2), (*mx / *mn) < 2.0});
  }

  // --- Claim 4: b-Batch with b >= n log n: Gap = Theta(b/n) [LS22a rows].
  {
    const bin_count n = 1024;
    std::vector<double> xs;  // b/n
    std::vector<campaign_config> cells;
    for (const step_count b : {16LL * n, 32LL * n, 64LL * n, 128LL * n}) {
      xs.push_back(static_cast<double>(b) / n);
      // Measure at a batch boundary (the gap oscillates by Theta(b/n)
      // within a batch) after at least 16 batches / 500n balls.
      const auto batches = std::max<step_count>(16, (500LL * n + b - 1) / b);
      cells.push_back({"b", [n, b] { return any_process(b_batch(n, b)); }, batches * b});
    }
    const auto gaps = mean_gaps(cells, opt);
    const auto fit = fit_linear(xs, gaps);
    std::printf("claim 4 (b >= n log n) gap vs b/n at n=%u: ", n);
    for (std::size_t i = 0; i < xs.size(); ++i) std::printf("b/n=%g->%.1f ", xs[i], gaps[i]);
    std::printf("\n  linear fit: slope=%.2f R^2=%.4f\n", fit.slope, fit.r_squared);
    verdicts.push_back({"Theta(b/n) [LS22a]", "b-Batch, n=1024, b/n=16..128", "R^2 of linear fit",
                        format_fixed(fit.r_squared, 4),
                        fit.r_squared > 0.98 && fit.slope > 0.2 && fit.slope < 3.0});
  }

  // --- Claim 5: sigma-Noisy-Load between Omega(min{sigma^{4/5},
  // sigma^{2/5} sqrt(log n)}) and O(sigma sqrt(log n) log(n sigma)).
  {
    const bin_count n = 10000;
    const step_count m = 1000LL * n;
    std::vector<campaign_config> cells;
    const std::vector<double> sigmas = {2, 4, 8, 16, 32};
    for (const double s : sigmas) {
      cells.push_back(
          {"s", [n, s] { return any_process(sigma_noisy_load(n, rho_gaussian(s))); }, m});
    }
    const auto gaps = mean_gaps(cells, opt);
    bool all_in_band = true;
    std::printf("claim 5 (Prop 10.1/11.5) sigma-Noisy-Load bands at n=%u:\n", n);
    for (std::size_t i = 0; i < sigmas.size(); ++i) {
      const double lower = 0.2 * theory::sigma_noisy_load_lower(n, sigmas[i]);
      const double upper = theory::sigma_noisy_load_upper(n, sigmas[i]);
      const double gap = gaps[i];
      const bool ok = gap >= lower && gap <= upper;
      all_in_band = all_in_band && ok;
      std::printf("  sigma=%-4g gap=%-7.2f band=[%.2f, %.2f] %s\n", sigmas[i], gap, lower, upper,
                  ok ? "ok" : "VIOLATED");
    }
    verdicts.push_back({"sigma bounds [Prop 10.1 + 11.5]", "sigma=2..32, n=10^4",
                        "all gaps within band", all_in_band ? "yes" : "no", all_in_band});
  }

  text_table table({"claim", "configuration", "statistic", "value", "verdict"});
  bool all_ok = true;
  for (const auto& v : verdicts) {
    table.add_row({v.claim, v.configuration, v.statistic, v.value, v.ok ? "OK" : "FAIL"});
    all_ok = all_ok && v.ok;
  }
  std::printf("\n=== Table 2.3 upper-bound shape checks ===\n%s\n", table.render().c_str());
  std::printf("[table_2_3_bounds_check done in %s, overall: %s]\n",
              format_duration(total.seconds()).c_str(), all_ok ? "OK" : "FAIL");
  return all_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
