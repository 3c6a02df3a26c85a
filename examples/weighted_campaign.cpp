// Weighted campaign: weight-distribution skew x batch size through the
// experiment orchestrator -- the generalized allocation model (PR 5) as a
// production-style capacity study.
//
//   $ ./weighted_campaign --journal weighted.jsonl --json weighted.json
//   ... interrupt it (Ctrl-C), then pick up where it left off:
//   $ ./weighted_campaign --journal weighted.jsonl --json weighted.json --resume
//
// The grid crosses two axes the unit-weight paper model cannot express:
//
//   * ball weighting -- job sizes from unit through fixed batches to
//     heavy-tailed truncated-Pareto draws (decreasing alpha = heavier
//     tail = more weight skew),
//   * b-Batch batch size -- how stale the load information is when each
//     decision is made.
//
// plus an optional non-uniform bin sampler (--sampler zipf:1 models bins
// with power-law popularity).  Every (config, repetition) cell is seeded
// derive_seed(seed, cell index), so results are byte-identical for any
// --threads value, and the JSONL journal + --resume reproduce an
// uninterrupted campaign exactly -- weighted cells included, because the
// model specs are part of the journaled grid fingerprint.
//
// The table prints mean Gap(m) = max load - total weight / n per cell.
// Expect the gap to grow both down (bigger batches = staler info) and
// right (heavier tails = lumpier arrivals): weight skew and staleness
// compound.
#include <cstdio>

#include "noisebalance.hpp"

int main(int argc, char** argv) {
  using namespace nb;
  try {
    cli_parser cli(
        "weighted_campaign -- weight-distribution skew x batch size through the "
        "orchestrator, with JSONL journaling and resume.");
    cli.add_int("n", 10000, "bins per configuration");
    cli.add_int("m-mult", 100, "balls per bin: m = m-mult * n");
    cli.add_int("runs", 10, "repetitions per configuration");
    cli.add_int("seed", 2026, "campaign master seed");
    cli.add_int("threads", 0, "scheduler workers (0 = hardware cores; never affects results)");
    cli.add_string("sampler", "uniform",
                   "bin sampler for every cell: uniform | zipf:<s> | hot:<k>,<f>");
    cli.add_string("journal", "", "append-only JSONL cell journal (enables --resume)");
    cli.add_bool("resume", false, "replay --journal and run only the missing cells");
    cli.add_string("json", "", "write the aggregate JSON archive here");
    cli.add_string("csv", "", "write the per-config CSV here");
    if (!cli.parse(argc, argv)) return 0;

    NB_REQUIRE(cli.get_int("n") >= 1, "--n must be positive");
    NB_REQUIRE(cli.get_int("m-mult") >= 1, "--m-mult must be positive");
    NB_REQUIRE(cli.get_int("runs") >= 1, "--runs must be positive");
    const auto n = static_cast<bin_count>(cli.get_int("n"));
    const auto m = static_cast<step_count>(cli.get_int("m-mult")) * n;

    // The two swept axes.  Weightings go from the paper's unit model to a
    // heavy Pareto tail; all have mean O(1)-ish weights so the cells stay
    // comparable in total work.
    const std::vector<std::string> weightings = {
        "unit", "fixed:4", "two-point:1,32,0.05", "pareto:2", "pareto:1.2"};
    const std::vector<step_count> batch_sizes = {1, static_cast<step_count>(n) / 10,
                                                 static_cast<step_count>(n)};

    sweep_grid grid;
    grid.kinds = {"b-batch"};
    grid.params.clear();
    for (const auto b : batch_sizes) grid.params.push_back(static_cast<double>(b));
    grid.bins = {n};
    grid.m_override = m;
    grid.weightings = weightings;
    grid.samplers = {cli.get_string("sampler")};

    campaign_options opt;
    opt.repeats = static_cast<std::size_t>(cli.get_int("runs"));
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.threads = thread_count_flag("--threads", cli.get_int("threads"));
    opt.journal_path = cli.get_string("journal");
    opt.resume = cli.get_bool("resume");
    NB_REQUIRE(!opt.resume || !opt.journal_path.empty(), "--resume needs --journal");

    std::printf("weighted campaign: b-batch, n = %u, m = %lld, %zu runs/cell, sampler = %s\n\n",
                n, static_cast<long long>(m), opt.repeats, cli.get_string("sampler").c_str());

    const auto campaign = run_campaign(grid, opt);

    // expand_grid order: params (batch sizes) outer, weightings inner.
    std::printf("mean Gap(m) = max load - W/n   (rows: batch size, columns: weighting)\n\n");
    std::printf("%-12s", "b \\ weights");
    for (const auto& w : weightings) std::printf(" %20s", w.c_str());
    std::printf("\n");
    for (std::size_t bi = 0; bi < batch_sizes.size(); ++bi) {
      std::printf("%-12lld", static_cast<long long>(batch_sizes[bi]));
      for (std::size_t wi = 0; wi < weightings.size(); ++wi) {
        const auto& agg = campaign.configs[bi * weightings.size() + wi].aggregate;
        std::printf(" %20.2f", agg.mean_gap());
      }
      std::printf("\n");
    }

    std::printf("\ncells executed: %zu, resumed from journal: %zu\n", campaign.cells_executed,
                campaign.cells_resumed);
    if (!cli.get_string("json").empty()) {
      campaign.write_json(cli.get_string("json"));
      std::printf("aggregate JSON -> %s\n", cli.get_string("json").c_str());
    }
    if (!cli.get_string("csv").empty()) {
      campaign.write_csv(cli.get_string("csv"));
      std::printf("per-config CSV -> %s\n", cli.get_string("csv").c_str());
    }
    std::printf(
        "\nReading the table: staleness (down) and weight skew (right) compound -- the\n"
        "heavy-tailed pareto:1.2 column dominates every batch size because one huge job\n"
        "can outweigh thousands of average ones, a regime the unit-weight analysis\n"
        "never sees.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
