// Ablation: adversary strength inside the g-Adv-Comp budget.
//
// The setting admits *any* adaptive adversary; the paper instantiates two
// (greedy = g-Bounded, random = g-Myopic-Comp).  This bench compares all
// shipped strategies at equal g, answering:
//   * how much of the O(g + log n) budget does each strategy realize?
//   * is greedy reversal actually the strongest simple strategy?
//   * does g-Adv-Load (inverting estimates, +/-g) stay inside the
//     (2g)-Adv-Comp envelope the paper's reduction promises?
#include "bench_common.hpp"

namespace {

using namespace nb;
using namespace nb::bench;

int run(int argc, const char* const* argv) {
  cli_parser cli("ablation_adversaries -- compares adversary strategies at equal g, plus the "
                 "g-Adv-Load -> (2g)-Adv-Comp reduction.");
  add_standard_flags(cli);
  auto cfg_opt = parse_standard(cli, argc, argv);
  if (!cfg_opt) return 0;
  auto cfg = *cfg_opt;
  warn_model_flags_unsupported(cfg, "ablation_adversaries");
  if (cfg.runs_override == 0 && !cfg.paper_mode()) cfg.runs_override = 5;

  const bin_count n =
      cfg.n_override > 0 ? static_cast<bin_count>(cfg.n_override) : bin_count{10000};
  const step_count m = static_cast<step_count>(cfg.m_multiplier) * n;
  const std::vector<load_t> gs = {4, 16, 64};

  std::printf("=== Adversary-strength ablation (n=%s, m=%s, runs=%zu) ===\n\n",
              format_power_of_ten(n).c_str(), format_power_of_ten(m).c_str(), cfg.runs());

  stopwatch total;
  std::vector<campaign_config> cells;
  for (const load_t g : gs) {
    cells.push_back({"correct", [n, g] { return any_process(g_adv_comp<always_correct>(n, g)); }, m});
    cells.push_back({"myopic", [n, g] { return any_process(g_myopic_comp(n, g)); }, m});
    cells.push_back({"index-bias", [n, g] { return any_process(g_adv_comp<index_bias>(n, g)); }, m});
    cells.push_back({"boost", [n, g] { return any_process(g_adv_comp<overload_booster>(n, g)); }, m});
    cells.push_back({"greedy", [n, g] { return any_process(g_bounded(n, g)); }, m});
    cells.push_back(
        {"adv-load", [n, g] { return any_process(g_adv_load<inverting_estimates>(n, g)); }, m});
    cells.push_back({"greedy-2g", [n, g] { return any_process(g_bounded(n, 2 * g)); }, m});
  }
  const auto campaign = run_campaign(cells, campaign_options_for(cfg));
  constexpr std::size_t kPerG = 7;

  text_table table({"g", "correct(=2-choice)", "myopic", "index-bias", "boost", "greedy(bounded)",
                    "adv-load(+/-g)", "greedy(2g) envelope"});
  bool reduction_ok = true;
  bool greedy_strongest = true;
  for (std::size_t i = 0; i < gs.size(); ++i) {
    const auto gap = [&](std::size_t k) {
      return campaign.configs[i * kPerG + k].aggregate.mean_gap();
    };
    table.add_row({std::to_string(gs[i]), format_fixed(gap(0), 2), format_fixed(gap(1), 2),
                   format_fixed(gap(2), 2), format_fixed(gap(3), 2), format_fixed(gap(4), 2),
                   format_fixed(gap(5), 2), format_fixed(gap(6), 2)});
    // The paper's reduction: g-Adv-Load simulable by (2g)-Adv-Comp.
    reduction_ok = reduction_ok && gap(5) <= gap(6) + 1.0;
    // Greedy should dominate the other single-step strategies.
    for (std::size_t k = 1; k <= 3; ++k) {
      greedy_strongest = greedy_strongest && gap(4) + 0.75 >= gap(k);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("g-Adv-Load stays within its (2g)-Adv-Comp envelope: %s\n",
              reduction_ok ? "yes" : "NO");
  std::printf("greedy reversal is the strongest shipped per-step strategy: %s\n",
              greedy_strongest ? "yes" : "NO");
  report_campaign(campaign, cfg);
  std::printf(
      "(Notably the overload-booster -- which reverses only onto already-overloaded bins --\n"
      " is *weaker* than unconditional greedy: reversals among underloaded pairs feed the\n"
      " escalation ladder that eventually pushes bins into the overloaded region, so skipping\n"
      " them wastes adversarial budget.  The deterministic index-bias adversary nearly matches\n"
      " greedy at large g: a fixed target set of hot bins is almost as damaging as adaptivity.)\n");
  std::printf("[ablation_adversaries done in %s]\n", format_duration(total.seconds()).c_str());
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
