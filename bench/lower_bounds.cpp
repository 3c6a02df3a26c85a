// Reproduces the lower-bound experiments of Section 11 (Table 11.1):
//
//   Obs  11.1  every g-Adv-Comp instance >= Two-Choice's gap
//   Prop 11.2i  g-Myopic-Comp: Gap(ng/2) >= g/35 for 2 <= g <= 6 log n
//   Prop 11.2ii g-Myopic-Comp: Gap(ng^2/(32 log n)) >= g/60 for g >= 6 log n
//   Thm  11.3  g-Myopic-Comp: Gap = Omega(g/log g loglog n) (magnitude check)
//   Prop 11.5  sigma-Noisy-Load: Gap(sigma^{4/5} n/2) >= min{sigma^{4/5}/2,
//              sigma^{2/5} sqrt(log n)/30} for sigma >= 32
//   Obs  11.6  the first batch of b-Batch is exactly One-Choice with b balls
#include "bench_common.hpp"

#include <cmath>

#include "core/theory/bounds.hpp"

namespace {

using namespace nb;
using namespace nb::bench;

int run(int argc, const char* const* argv) {
  cli_parser cli("lower_bounds -- Section 11 lower-bound experiments (Table 11.1).");
  add_standard_flags(cli);
  auto cfg_opt = parse_standard(cli, argc, argv);
  if (!cfg_opt) return 0;
  auto cfg = *cfg_opt;
  warn_model_flags_unsupported(cfg, "lower_bounds");
  reject_campaign_file_flags(cfg, "lower_bounds", kSeveralCampaigns);
  if (cfg.runs_override == 0 && !cfg.paper_mode()) cfg.runs_override = 10;
  const campaign_options opt = campaign_options_for(cfg);

  const bin_count n =
      cfg.n_override > 0 ? static_cast<bin_count>(cfg.n_override) : bin_count{10000};
  const double logn = std::log(static_cast<double>(n));
  // Each measured g-Myopic-Comp point is its own one-configuration campaign.
  const auto myopic_gap = [&](load_t g, step_count m) {
    return mean_gaps({{"m", [n, g] { return any_process(g_myopic_comp(n, g)); }, m}}, opt)[0];
  };
  stopwatch total;
  bool all_ok = true;
  text_table table({"bound", "configuration", "measured gap", "lower bound", "verdict"});

  // --- Observation 11.1: majorization floor.
  {
    const step_count m = 200LL * n;
    const std::vector<campaign_config> cells = {
        {"two-choice", [n] { return any_process(two_choice(n)); }, m},
        {"g-bounded", [n] { return any_process(g_bounded(n, 8)); }, m},
        {"g-myopic", [n] { return any_process(g_myopic_comp(n, 8)); }, m},
        {"g-adv-boost", [n] { return any_process(g_adv_comp<overload_booster>(n, 8)); }, m},
        {"g-adv-index", [n] { return any_process(g_adv_comp<index_bias>(n, 8)); }, m},
    };
    const auto gaps = mean_gaps(cells, opt);
    const double floor = gaps[0];
    for (std::size_t i = 1; i < cells.size(); ++i) {
      const double gap = gaps[i];
      const bool ok = gap + 0.5 >= floor;  // statistical slack
      all_ok = all_ok && ok;
      table.add_row({"Obs 11.1 (>= Two-Choice)", cells[i].label + " g=8",
                     format_fixed(gap, 2), format_fixed(floor, 2) + " (Two-Choice)",
                     ok ? "OK" : "FAIL"});
    }
  }

  // --- Proposition 11.2 (i): Gap(ng/2) >= g/35.
  for (const load_t g : {8, 16, 32}) {
    const auto m = static_cast<step_count>(n) * g / 2;
    const double gap = myopic_gap(g, m);
    const double bound = static_cast<double>(g) / 35.0;
    const bool ok = gap >= bound;
    all_ok = all_ok && ok;
    table.add_row({"Prop 11.2(i) Omega(g)", "g-Myopic g=" + std::to_string(g) + ", m=ng/2",
                   format_fixed(gap, 2), format_fixed(bound, 2), ok ? "OK" : "FAIL"});
  }

  // --- Proposition 11.2 (ii): large g regime, m = n g^2/(32 log n).
  {
    const auto g = static_cast<load_t>(std::ceil(6.0 * logn));
    const auto m = static_cast<step_count>(static_cast<double>(n) * g * g / (32.0 * logn));
    const double gap = myopic_gap(g, m);
    const double bound = static_cast<double>(g) / 60.0;
    const bool ok = gap >= bound;
    all_ok = all_ok && ok;
    table.add_row({"Prop 11.2(ii) Omega(g)",
                   "g-Myopic g=" + std::to_string(g) + "=6log n, m=ng^2/(32log n)",
                   format_fixed(gap, 2), format_fixed(bound, 2), ok ? "OK" : "FAIL"});
  }

  // --- Theorem 11.3 magnitude: at m = 1000n the myopic gap exceeds
  // (1/8) g/log g loglog n (the theorem's constant at its own m = n*l; the
  // heavily loaded gap only grows, Observation 11.1 + majorization).
  for (const load_t g : {4, 8, 16}) {
    const step_count m = 1000LL * n;
    const double gap = myopic_gap(g, m);
    const double bound = 0.125 * theory::adv_comp_sublinear_bound(n, g);
    const bool ok = gap >= bound;
    all_ok = all_ok && ok;
    table.add_row({"Thm 11.3 Omega(g/log g loglog n)",
                   "g-Myopic g=" + std::to_string(g) + ", m=1000n", format_fixed(gap, 2),
                   format_fixed(bound, 2), ok ? "OK" : "FAIL"});
  }

  // --- Proposition 11.5 (ii): sigma >= 32, m = sigma^{4/5} n / 2.
  for (const double sigma : {32.0, 64.0}) {
    const auto m = static_cast<step_count>(0.5 * std::pow(sigma, 0.8) * n);
    const double gap = mean_gaps(
        {{"m", [n, sigma] { return any_process(sigma_noisy_load(n, rho_gaussian(sigma))); }, m}},
        opt)[0];
    const double bound =
        std::min(0.5 * std::pow(sigma, 0.8), std::pow(sigma, 0.4) * std::sqrt(logn) / 30.0);
    const bool ok = gap >= bound;
    all_ok = all_ok && ok;
    table.add_row({"Prop 11.5(ii) sigma lower bound",
                   "sigma=" + std::to_string(static_cast<int>(sigma)) + ", m=sigma^0.8 n/2",
                   format_fixed(gap, 2), format_fixed(bound, 2), ok ? "OK" : "FAIL"});
  }

  // --- Observation 11.6: Gap(b) of b-Batch == One-Choice with b balls.
  {
    const step_count b = n;
    const std::vector<campaign_config> cells = {
        {"b-batch first batch", [n, b] { return any_process(b_batch(n, b)); }, b},
        {"one-choice", [n] { return any_process(one_choice(n)); }, b},
    };
    const auto gaps = mean_gaps(cells, opt);
    const double batch_gap = gaps[0];
    const double one_gap = gaps[1];
    const bool ok = std::fabs(batch_gap - one_gap) < 0.75;
    all_ok = all_ok && ok;
    table.add_row({"Obs 11.6 first batch == One-Choice", "b=n=" + std::to_string(n),
                   format_fixed(batch_gap, 2), format_fixed(one_gap, 2) + " (One-Choice)",
                   ok ? "OK" : "FAIL"});
  }

  std::printf("=== Section 11 lower-bound experiments (n=%s, runs=%zu) ===\n%s\n",
              format_power_of_ten(n).c_str(), cfg.runs(), table.render().c_str());
  std::printf("[lower_bounds done in %s, overall: %s]\n", format_duration(total.seconds()).c_str(),
              all_ok ? "OK" : "FAIL");
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
