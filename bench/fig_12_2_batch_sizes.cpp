// Reproduces Figure 12.2: the average gap of b-Batch for batch sizes
// b in {5, 10, 50, 100, ..., 10^5, 5x10^5} with n = 10^4 and m = 1000 n,
// against the One-Choice gap with m = b balls (the first-batch lower bound
// of Observation 11.6), plus the theory column
// log n / log((4n/b) log n) (Corollary 10.4).
//
// One orchestrator campaign: each batch size contributes a b-Batch config
// (m = 1000 n) and a One-Choice config (m = b), both registry-backed, so
// the campaign is journal-able and resumable (--journal/--resume).
#include <cmath>

#include "bench_common.hpp"
#include "core/theory/bounds.hpp"

namespace {

using namespace nb;
using namespace nb::bench;

int run(int argc, const char* const* argv) {
  cli_parser cli(
      "fig_12_2_batch_sizes -- Figure 12.2: mean gap of b-Batch vs batch size, with the "
      "One-Choice(m=b) baseline.");
  add_standard_flags(cli);
  const auto cfg = parse_standard(cli, argc, argv);
  if (!cfg) return 0;

  // The paper's Figure 12.2 uses a single n = 10^4; honor --n but default
  // to that even in paper mode.
  const bin_count n =
      cfg->n_override > 0 ? static_cast<bin_count>(cfg->n_override) : bin_count{10000};
  const step_count m = static_cast<step_count>(cfg->m_multiplier) * n;
  const auto batch_sizes = one_five_decades(5, 500000);

  std::printf("=== Figure 12.2: b-Batch gap vs batch size (n = %s, m = %s, runs=%zu) ===\n\n",
              format_power_of_ten(n).c_str(), format_power_of_ten(m).c_str(), cfg->runs());

  std::vector<campaign_config> configs;
  for (const auto b : batch_sizes) {
    configs.push_back({"b-batch/" + std::to_string(b), {}, m,
                       process_spec{"b-batch", n, static_cast<double>(b)}});
    // One-Choice ignores the parameter; keep b as metadata so the JSON /
    // CSV rows stay self-describing.
    configs.push_back({"one-choice/" + std::to_string(b), {}, b,
                       process_spec{"one-choice", n, static_cast<double>(b)}});
  }
  apply_model_flags(configs, *cfg);
  stopwatch total;
  const auto campaign = run_campaign(configs, campaign_options_for(*cfg));

  std::unique_ptr<csv_writer> csv;
  if (!cfg->csv.empty()) {
    csv = std::make_unique<csv_writer>(
        cfg->csv,
        std::vector<std::string>{"b", "batch_gap", "one_choice_gap", "theory_shape"});
  }

  text_table table({"b", "b-Batch gap", "(paper)", "One-Choice(m=b) gap", "max load",
                    "(paper max)", "theory log n/log((4n/b)log n)"});
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    const auto b = batch_sizes[i];
    const double batch_gap = campaign.configs[2 * i].aggregate.mean_gap();
    const auto& one = campaign.configs[2 * i + 1].aggregate;
    const double one_gap = one.mean_gap();
    // The paper's One-Choice series reports the *max load* = gap + b/n
    // (see README, "Reproduction notes"); print both for an apples-to-apples column.
    const double one_max = one.max_load().mean();
    const double shape =
        b <= static_cast<std::int64_t>(n * std::log(n))
            ? theory::batch_gap(n, static_cast<double>(b))
            : static_cast<double>(b) / n;
    table.add_row({format_power_of_ten(b), format_fixed(batch_gap, 2),
                   opt_str(paper_mean_for("b-batch", static_cast<int>(b), n)),
                   format_fixed(one_gap, 2), format_fixed(one_max, 2),
                   opt_str(paper_mean_for("one-choice", static_cast<int>(b), n)),
                   format_fixed(shape, 2)});
    if (csv) {
      csv->write_row({csv_writer::field(b), csv_writer::field(batch_gap),
                      csv_writer::field(one_gap), csv_writer::field(shape)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  report_campaign(campaign, *cfg);
  std::printf(
      "Expected shape (paper): flat Two-Choice-like gap for small b, then the b-Batch curve\n"
      "converges to the One-Choice(m=b) curve as b grows past n (batching forfeits the power\n"
      "of two choices within a batch); for b >= n log n both scale as Theta(b/n).\n");
  std::printf("[fig_12_2 done in %s]\n", format_duration(total.seconds()).c_str());
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
