// Reproduces Table 12.4: empirical gap distributions of b-Batch
// (n = 10^4, m = 1000 n) and of One-Choice with m = b balls, for
// b in {10, 10^2, 10^3, 10^4, 10^5}.
#include "bench_common.hpp"

namespace {

using namespace nb;
using namespace nb::bench;

int run(int argc, const char* const* argv) {
  cli_parser cli(
      "table_12_4_batch_distribution -- Table 12.4: gap distributions of b-Batch and the "
      "One-Choice(m=b) baseline.");
  add_standard_flags(cli);
  auto cfg_opt = parse_standard(cli, argc, argv);
  if (!cfg_opt) return 0;
  auto cfg = *cfg_opt;
  warn_model_flags_unsupported(cfg, "table_12_4_batch_distribution");
  if (cfg.runs_override == 0 && !cfg.paper_mode()) cfg.runs_override = 25;

  const bin_count n =
      cfg.n_override > 0 ? static_cast<bin_count>(cfg.n_override) : bin_count{10000};
  const step_count m = static_cast<step_count>(cfg.m_multiplier) * n;
  const std::vector<std::int64_t> batch_sizes = {10, 100, 1000, 10000, 100000};

  std::printf("=== Table 12.4: gap distributions, b-Batch vs One-Choice (n = %s, runs=%zu) ===\n\n",
              format_power_of_ten(n).c_str(), cfg.runs());

  std::vector<cell> cells;
  for (const auto b : batch_sizes) {
    cells.push_back(
        {"b-batch/" + std::to_string(b), [n, b] { return any_process(b_batch(n, b)); }, m});
    cells.push_back({"one-choice/" + std::to_string(b),
                     [n] { return any_process(one_choice(n)); }, b});
  }
  stopwatch total;
  const auto results = run_cells(cells, cfg.runs(), cfg.seed, cfg.threads, cfg.engine);

  const auto& published = paper_distributions();
  text_table batch_table({"b", "measured gap (b-Batch, m=1000n)", "paper"});
  text_table one_table({"b", "measured MAX LOAD (One-Choice, m=b)", "paper"});
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    const auto b = batch_sizes[i];
    const auto bp = published.find(paper_key{"b-batch", static_cast<int>(b), n});
    const auto op = published.find(paper_key{"one-choice", static_cast<int>(b), n});
    batch_table.add_row({format_power_of_ten(b), results[2 * i].gap_histogram.to_paper_style(),
                         bp != published.end() ? paper_style(bp->second) : "-"});
    // The paper's One-Choice column matches the *maximum load* (gap + b/n):
    // e.g. at b = 10^5 it reports ~24.8 where the gap is ~14.8 and b/n = 10.
    int_histogram max_hist;
    for (const auto& r : results[2 * i + 1].runs) max_hist.add(r.max_load);
    one_table.add_row({format_power_of_ten(b), max_hist.to_paper_style(),
                       op != published.end() ? paper_style(op->second) : "-"});
  }
  std::printf("b-Batch, m = %s:\n%s\n", format_power_of_ten(m).c_str(),
              batch_table.render().c_str());
  std::printf("One-Choice with m = b balls (the paper's column reports the max load, i.e.\n"
              "gap + b/n -- see EXPERIMENTS.md):\n%s\n",
              one_table.render().c_str());
  std::printf(
      "Expected shape (paper): for b >= n the two processes approach each other\n"
      "(Observation 11.6: the first batch *is* One-Choice), while for b << n the batch\n"
      "process stays at the Two-Choice level.\n");
  std::printf("[table_12_4 done in %s]\n", format_duration(total.seconds()).c_str());
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
