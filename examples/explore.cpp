// Interactive exploration tool: run ANY process in the library from the
// command line and get the full statistics package -- gap distribution over
// repetitions, max/min loads, potential values and the relevant theory
// bounds.  The fastest way to poke at the paper's processes.
//
//   $ ./explore --list
//   $ ./explore --process g-bounded --param 8 --n 10000 --m-mult 1000
//   $ ./explore --process b-batch --param 10000 --runs 50 --csv out.csv
#include <cstdio>
#include <string>

#include "noisebalance.hpp"

namespace {

using namespace nb;

int run(int argc, const char* const* argv) {
  cli_parser cli("explore -- run any noisebalance process and print its gap statistics.");
  cli.add_bool("list", false, "list the available process kinds and exit");
  cli.add_string("process", "two-choice", "process kind (see --list)");
  cli.add_double("param", 0.0, "process parameter (g / sigma / b / tau / beta / d)");
  cli.add_int("n", 10000, "number of bins");
  cli.add_int("m-mult", 100, "balls per bin: m = m-mult * n");
  cli.add_int("runs", 10, "independent repetitions");
  cli.add_int("seed", 1, "master seed");
  cli.add_int("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.add_string("csv", "", "write per-run results to this CSV file");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_bool("list")) {
    std::printf("Available process kinds:\n");
    for (const auto& [kind, description] : registered_process_kinds()) {
      std::printf("  %-28s %s\n", kind.c_str(), description.c_str());
    }
    return 0;
  }

  NB_REQUIRE(cli.get_int("n") >= 1 && cli.get_int("n") <= 0xFFFFFFFFLL,
             "--n got " + std::to_string(cli.get_int("n")) + "; it must be in [1, 2^32)");
  NB_REQUIRE(cli.get_int("m-mult") >= 1,
             "--m-mult got " + std::to_string(cli.get_int("m-mult")) + "; it must be positive");
  NB_REQUIRE(cli.get_int("runs") >= 1,
             "--runs got " + std::to_string(cli.get_int("runs")) + "; it must be positive");

  process_spec spec;
  spec.kind = cli.get_string("process");
  spec.n = static_cast<bin_count>(cli.get_int("n"));
  spec.param = cli.get_double("param");
  const step_count m = cli.get_int("m-mult") * static_cast<step_count>(spec.n);

  campaign_options opt;
  opt.repeats = static_cast<std::size_t>(cli.get_int("runs"));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opt.threads = thread_count_flag("--threads", cli.get_int("threads"));

  const any_process prototype = make_process(spec);
  std::printf("process: %s   n = %u   m = %lld (%lld per bin)   runs = %zu\n\n",
              prototype.name().c_str(), spec.n, static_cast<long long>(m),
              static_cast<long long>(m / spec.n), opt.repeats);

  const auto campaign = run_campaign({{spec.kind, nullptr, m, spec}}, opt);
  std::vector<double> gaps;
  double mean_under = 0.0;
  for (const auto& r : campaign.cells) {
    gaps.push_back(r.gap);
    mean_under += r.underload_gap;
  }
  const auto s = summarize(std::move(gaps));

  std::printf("gap distribution : %s\n",
              campaign.configs[0].aggregate.gap_histogram().to_paper_style().c_str());
  std::printf("gap mean/stddev  : %.3f +- %.3f\n", s.mean, s.stddev);
  std::printf("gap min..max     : %.1f .. %.1f   (median %.1f)\n", s.min, s.max, s.median);
  std::printf("underload gap    : %.3f (mean of t/n - min load)\n",
              mean_under / static_cast<double>(campaign.cells.size()));

  // Theory reference levels for context.
  const auto n = static_cast<double>(spec.n);
  std::printf("\nreference shapes at this n:\n");
  std::printf("  two-choice log2 log n          : %.2f\n", theory::two_choice_gap(n));
  std::printf("  one-choice gap at this m       : %.2f\n",
              theory::one_choice_gap(n, static_cast<double>(m)));
  if (spec.param > 1.0) {
    std::printf("  adv-comp tight  g + g/log g lln: %.2f (for g = %.0f)\n",
                theory::adv_comp_tight_gap(n, spec.param), spec.param);
    std::printf("  batch/delay shape              : %.2f (for b = tau = %.0f)\n",
                theory::batch_gap(n, spec.param), spec.param);
  }

  if (!cli.get_string("csv").empty()) {
    csv_writer csv(cli.get_string("csv"),
                   {"run", "seed", "gap", "max_load", "min_load", "balls"});
    for (std::size_t r = 0; r < campaign.cells.size(); ++r) {
      const auto& rr = campaign.cells[r];
      csv.write_row({csv_writer::field(static_cast<std::int64_t>(r)),
                     std::to_string(rr.seed), csv_writer::field(rr.gap),
                     csv_writer::field(static_cast<std::int64_t>(rr.max_load)),
                     csv_writer::field(static_cast<std::int64_t>(rr.min_load)),
                     csv_writer::field(rr.balls)});
    }
    std::printf("\nwrote %zu rows to %s\n", campaign.cells.size(), cli.get_string("csv").c_str());
  }
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
