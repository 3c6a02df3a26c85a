// Ablation: outdated information (Section 10.2).
//
// Sweeps the delay parameter tau across the regimes of Theorem 10.2 /
// Corollary 10.4 / Remark 10.6 and compares:
//   * tau-Delay with the adversarial sliding-window reporter (the setting
//     the upper bounds are proved for),
//   * tau-Delay with benign reporters (oldest value / random in window),
//   * b-Batch with b = tau (the fully synchronized special case).
//
// The paper's point: synchronized snapshots are *not* needed -- the
// asynchronous adversarial variant has the same Theta(log n / log((4n/tau)
// log n)) gap for tau around n.
#include "bench_common.hpp"

#include <cmath>

#include "core/theory/bounds.hpp"

namespace {

using namespace nb;
using namespace nb::bench;

int run(int argc, const char* const* argv) {
  cli_parser cli("ablation_delay -- tau-Delay strategies vs b-Batch across the tau regimes of "
                 "Section 10.2.");
  add_standard_flags(cli);
  auto cfg_opt = parse_standard(cli, argc, argv);
  if (!cfg_opt) return 0;
  auto cfg = *cfg_opt;
  warn_model_flags_unsupported(cfg, "ablation_delay");
  if (cfg.runs_override == 0 && !cfg.paper_mode()) cfg.runs_override = 5;

  const bin_count n = cfg.n_override > 0 ? static_cast<bin_count>(cfg.n_override) : bin_count{4096};
  const step_count m = 300LL * n;
  const auto nlogn = static_cast<step_count>(n * std::log(n));
  // tau regimes: sub-polynomial (Remark 10.6), around n (Thm 10.2), up to
  // n log n (Cor 10.4) and past it (the Theta(b/n) regime).
  const std::vector<step_count> taus = {n / 64, n / 8, n, 4LL * n, nlogn, 4 * nlogn};

  std::printf("=== Delay ablation (n=%s, m=%s, runs=%zu) ===\n\n", format_power_of_ten(n).c_str(),
              format_power_of_ten(m).c_str(), cfg.runs());

  stopwatch total;
  std::vector<campaign_config> cells;
  for (const auto tau : taus) {
    cells.push_back({"adversarial",
                     [n, tau] { return any_process(tau_delay<delay_adversarial>(n, tau)); }, m});
    cells.push_back(
        {"oldest", [n, tau] { return any_process(tau_delay<delay_oldest>(n, tau)); }, m});
    cells.push_back(
        {"random", [n, tau] { return any_process(tau_delay<delay_random>(n, tau)); }, m});
    cells.push_back({"batch", [n, tau] { return any_process(b_batch(n, tau)); }, m});
  }
  const auto campaign = run_campaign(cells, campaign_options_for(cfg));

  text_table table({"tau (= b)", "delay adversarial", "delay oldest", "delay random",
                    "b-batch", "theory shape"});
  for (std::size_t i = 0; i < taus.size(); ++i) {
    const auto gap = [&](std::size_t k) {
      return campaign.configs[4 * i + k].aggregate.mean_gap();
    };
    table.add_row({std::to_string(taus[i]), format_fixed(gap(0), 2), format_fixed(gap(1), 2),
                   format_fixed(gap(2), 2), format_fixed(gap(3), 2),
                   format_fixed(theory::batch_gap(n, static_cast<double>(taus[i])), 2)});
  }
  std::printf("%s\n", table.render().c_str());
  report_campaign(campaign, cfg);
  std::printf(
      "Expected shape: all four columns grow together with tau; the adversarial reporter\n"
      "dominates the benign ones but stays within a constant factor of b-Batch (Thm 10.2:\n"
      "synchronized updates are not essential); past tau = n log n everything is ~ tau/n.\n");
  std::printf("[ablation_delay done in %s]\n", format_duration(total.seconds()).c_str());
  return 0;
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
