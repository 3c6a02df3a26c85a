// Campaign: a mixed-scenario experiment campaign through the orchestrator.
//
//   $ ./campaign --journal campaign.jsonl --json campaign.json
//   ... interrupt it (Ctrl-C), then pick up where it left off:
//   $ ./campaign --journal campaign.jsonl --json campaign.json --resume
//
// One run_campaign call sweeps three scenario families at once:
//   * a declarative noise grid (g-Bounded and sigma-Noisy-Load at several
//     noise levels) expanded from a sweep_grid,
//   * batched allocation (b-Batch at b = n and b = 4n), registry-backed,
//   * a custom factory config (d-Choice with d = 4) showing that
//     non-registry processes join the same campaign.
//
// Every (config, repetition) cell gets seed derive_seed(seed, cell index),
// so the aggregate below is byte-identical for any --threads value, and a
// resumed campaign reproduces an uninterrupted one exactly.
#include <cstdio>

#include "noisebalance.hpp"

int main(int argc, char** argv) {
  using namespace nb;
  try {
    cli_parser cli(
        "campaign -- mixed-scenario experiment campaign with journaling, resume and "
        "JSON/CSV archives.");
    cli.add_int("n", 10000, "bins per configuration");
    cli.add_int("m-mult", 100, "balls per bin: m = m-mult * n");
    cli.add_int("runs", 10, "repetitions per configuration");
    cli.add_int("seed", 2022, "campaign master seed");
    cli.add_int("threads", 0, "scheduler workers (0 = hardware cores; never affects results)");
    cli.add_string("journal", "", "append-only JSONL cell journal (enables --resume)");
    cli.add_bool("resume", false, "replay --journal and run only the missing cells");
    cli.add_int("checkpoint-every", 0,
                "checkpoint each cell's mid-run state about every N balls next to --journal "
                "(0 = off; --resume then picks cells up mid-run; never affects results)");
    // The engine-selection and allocation-model families come from
    // util/cli's shared registration (canonical spelling everywhere).
    add_engine_flags(cli);
    add_model_flags(cli);
    cli.add_string("json", "", "write the aggregate JSON archive here");
    cli.add_string("csv", "", "write the per-config CSV here");
    if (!cli.parse(argc, argv)) return 0;

    const auto n = static_cast<bin_count>(cli.get_int("n"));
    const auto m = static_cast<step_count>(cli.get_int("m-mult")) * n;
    NB_REQUIRE(cli.get_int("n") >= 1, "--n must be positive");
    NB_REQUIRE(cli.get_int("m-mult") >= 1, "--m-mult must be positive");
    NB_REQUIRE(cli.get_int("runs") >= 1, "--runs must be positive");

    // Family 1: the declarative noise grid.
    sweep_grid noise;
    noise.kinds = {"g-bounded", "sigma-noisy-load"};
    noise.params = {1.0, 4.0, 8.0};
    noise.bins = {n};
    noise.m_override = m;
    auto configs = make_configs(expand_grid(noise));

    // Family 2: batched allocation, straight from the registry.
    configs.push_back({"b-batch/b=n", {}, m, process_spec{"b-batch", n, static_cast<double>(n)}});
    configs.push_back(
        {"b-batch/b=4n", {}, m, process_spec{"b-batch", n, static_cast<double>(4) * n}});

    // Family 3: a custom factory -- any allocation_process joins the
    // campaign, registry or not.
    configs.push_back({"d-choice/4 (factory)",
                       [n] { return any_process(d_choice(n, 4)); }, m});

    // --weighting/--sampler/--departures (and --churn occupancy) reshape
    // the registry-backed configs; with --departures the campaign runs
    // steady-state churn cells instead of pure insertion.
    const model_flag_values model = get_model_flags(cli);
    model_overrides overrides;
    overrides.weighting = model.weighting;
    overrides.sampler = model.sampler;
    overrides.departures = model.churn.departures;
    overrides.churn_occupancy = static_cast<step_count>(model.churn.churn);
    apply_model_overrides(configs, overrides);

    campaign_options opt;
    opt.repeats = static_cast<std::size_t>(cli.get_int("runs"));
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.threads = thread_count_flag("--threads", cli.get_int("threads"));
    opt.journal_path = cli.get_string("journal");
    opt.resume = cli.get_bool("resume");
    NB_REQUIRE(cli.get_int("checkpoint-every") >= 0, "--checkpoint-every must be non-negative");
    opt.checkpoint_every = static_cast<step_count>(cli.get_int("checkpoint-every"));
    opt.churn_telemetry_every = static_cast<step_count>(model.churn.telemetry);

    opt.engine = engine_from_flags(get_engine_flags(cli));

    const auto campaign = run_campaign(configs, opt);

    std::printf("campaign: %zu configs x %zu repeats = %zu cells "
                "(%zu executed, %zu resumed from journal, %zu restored mid-run)\n\n",
                campaign.configs.size(), campaign.repeats,
                campaign.configs.size() * campaign.repeats, campaign.cells_executed,
                campaign.cells_resumed, campaign.cells_restored);
    text_table table({"config", "runs", "mean gap", "stddev", "median", "max"});
    for (const auto& cr : campaign.configs) {
      const auto& agg = cr.aggregate;
      table.add_row({cr.config.label, std::to_string(agg.count()),
                     format_fixed(agg.mean_gap(), 2), format_fixed(agg.gap_stddev(), 2),
                     std::to_string(agg.gap_quantile(0.5)), format_fixed(agg.gap().max(), 1)});
    }
    std::printf("%s\n", table.render().c_str());

    if (!cli.get_string("json").empty()) {
      campaign.write_json(cli.get_string("json"));
      std::printf("aggregate JSON -> %s\n", cli.get_string("json").c_str());
    }
    if (!cli.get_string("csv").empty()) {
      campaign.write_csv(cli.get_string("csv"));
      std::printf("per-config CSV -> %s\n", cli.get_string("csv").c_str());
    }
    if (!opt.journal_path.empty() && !opt.resume) {
      std::printf("journal -> %s (re-run with --resume to skip completed cells)\n",
                  opt.journal_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
