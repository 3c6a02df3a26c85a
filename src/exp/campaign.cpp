#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>

#include "exp/checkpoint.hpp"
#include "exp/journal.hpp"
#include "sim/churn.hpp"
#include "util/csv.hpp"

namespace nb {

// ---------------------------------------------------------------------------
// Aggregator.

void cell_aggregator::add(const run_result& r) {
  gap_.add(r.gap);
  underload_.add(r.underload_gap);
  max_load_.add(static_cast<double>(r.max_load));
  histogram_.add(static_cast<std::int64_t>(std::llround(r.gap)));
}

void cell_aggregator::merge(const cell_aggregator& other) {
  gap_.merge(other.gap_);
  underload_.merge(other.underload_);
  max_load_.merge(other.max_load_);
  histogram_.merge(other.histogram_);
}

std::int64_t cell_aggregator::gap_quantile(double q) const { return histogram_.quantile(q); }

// ---------------------------------------------------------------------------
// Config construction.

campaign_config make_config(const sweep_point& point) {
  campaign_config config;
  config.label = point.label;
  config.m = point.m;
  config.process = point.process;
  // A departure axis makes the point a steady-state cell: warm up to
  // occupancy ~ m resident balls, then churn for m pairs (the ROADMAP's
  // steady-state regime).
  if (point.process.departures != "none") config.churn_occupancy = point.m;
  return config;
}

std::vector<campaign_config> make_configs(const std::vector<sweep_point>& points) {
  std::vector<campaign_config> out;
  out.reserve(points.size());
  for (const auto& point : points) out.push_back(make_config(point));
  return out;
}

void apply_model_overrides(std::vector<campaign_config>& configs, const model_overrides& o) {
  if (o.weighting == "unit" && o.sampler == "uniform" && o.departures == "none") return;
  for (auto& config : configs) {
    if (config.factory) {
      warn_once("campaign-model-overrides/" + config.label,
                "--weighting/--sampler/--departures have no effect on factory-built cell '" +
                    config.label + "': the overrides apply to registry-backed configs only");
      continue;
    }
    config.process.weighting = o.weighting;
    config.process.sampler = o.sampler;
    config.process.departures = o.departures;
    if (o.departures != "none") {
      config.churn_occupancy = o.churn_occupancy > 0 ? o.churn_occupancy : config.m;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler.

namespace {

/// FNV-1a fingerprint of the configuration list's identifying fields.
/// Journals store it in their header: per-cell seeds depend only on
/// (campaign seed, cell index), so without this a journal from a
/// same-shaped campaign over a *different* grid (other m, n, kinds or
/// labels) would pass every seed check and silently mix in on resume.
///
/// The engine joins the hash too, when it is not the serial one: a
/// journal written under use_kernel or threads_per_run/shards holds cells
/// of a different sampling contract, so it must not resume under another
/// engine.  Serial journals keep their hash and keep resuming.
std::uint64_t grid_fingerprint(const std::vector<campaign_config>& configs,
                               const std::string& engine) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const std::string& field) {
    for (const unsigned char c : field) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xFFu;  // field separator, so ("ab","c") != ("a","bc")
    h *= 1099511628211ULL;
  };
  for (const auto& config : configs) {
    mix(config.label);
    mix(config.process.kind);
    mix(std::to_string(config.process.n));
    mix(json_double(config.process.param));
    mix(std::to_string(config.m));
    // Model axes joined the sampling contract in PR 5.  Mixed only when
    // non-default so journals recorded before the axes existed (implicitly
    // unit/uniform) keep resuming cleanly.
    if (config.process.weighting != "unit" || config.process.sampler != "uniform") {
      mix(config.process.weighting);
      mix(config.process.sampler);
    }
    // Same pattern for the churn axes (PR 9): insertion-only configs keep
    // their pre-churn fingerprint, so old journals keep resuming.
    if (config.process.departures != "none" || config.churn_occupancy > 0) {
      mix(config.process.departures);
      mix(std::to_string(config.churn_occupancy));
    }
  }
  if (engine != "serial") mix(engine);
  return h;
}

run_result run_cell(const campaign_config& config, std::size_t index, std::uint64_t seed,
                    const campaign_options& opt, bool* restored) {
  any_process process = config.factory ? config.factory() : make_process(config.process);
  rng_t rng(seed);
  // Engine + scratch are per cell: intra-run parallelism targets few,
  // huge runs, where one run dwarfs the shard engine's ~ms startup.
  run_engine engine(opt.engine);

  bool checkpointing = opt.checkpoint_every > 0;
  if (checkpointing && !process.checkpointable()) {
    // Accepted-but-ineffective, like the engines' unsupported-process
    // traps: the run still completes, it is just not preemptible.
    warn_once("checkpoint/" + process.name(),
              "process '" + process.name() +
                  "' does not support mid-run checkpointing; cell runs checkpoint-free "
                  "(journal-level resume still applies)");
    checkpointing = false;
  }

  // Steady-state cell: warm up to occupancy, then m churn pairs; the
  // journaled run_result is the final boundary's observables.
  const bool churn = config.churn_occupancy > 0;
  churn_options churn_opt;
  if (churn) {
    churn_opt.occupancy = config.churn_occupancy;
    churn_opt.events = config.m;
    churn_opt.telemetry_every = opt.churn_telemetry_every;
  }

  run_result r;
  if (checkpointing) {
    const std::string ckpt_path = checkpoint_cell_path(opt.journal_path, index);
    step_count progress_done = 0;
    if (opt.resume) {
      if (const auto ckpt = try_read_checkpoint_file(ckpt_path)) {
        if (churn) {
          // Churn progress is not the resident ball count; the driver
          // validates the counter against its cycle structure.
          progress_done = restore_checkpoint_identity(process, rng, *ckpt,
                                                      engine.churn_fingerprint(), index, seed);
        } else {
          restore_from_checkpoint(process, rng, *ckpt, engine.fingerprint(), index, seed,
                                  config.m);
        }
        *restored = true;
      }
    }
    const auto save_mark = [&](step_count progress) {
      // Churn marks carry the batched-departure contract tag; insertion
      // marks keep the unchanged insertion fingerprint.
      const std::string& fp = churn ? engine.churn_fingerprint() : engine.fingerprint();
      write_checkpoint_file(ckpt_path,
                            capture_checkpoint(process, rng, fp, index, seed, progress));
    };
    if (churn) {
      r = run_churn_checkpointed(process, churn_opt, rng, engine, opt.checkpoint_every, save_mark,
                                 progress_done)
              .final_state;
    } else {
      r = run_checkpointed(process, config.m, rng, engine, opt.checkpoint_every, save_mark);
    }
    // The journal line the caller appends supersedes the checkpoint; a
    // stale file would only confuse the next resume.
    std::remove(ckpt_path.c_str());
  } else if (churn) {
    r = run_churn(process, churn_opt, rng, engine).final_state;
  } else {
    r = simulate_with(process, config.m, rng, engine);
  }
  r.seed = seed;
  return r;
}

}  // namespace

std::string checkpoint_cell_path(const std::string& journal_path, std::size_t cell) {
  return journal_path + ".cell" + std::to_string(cell) + ".ckpt";
}

campaign_result run_campaign(const std::vector<campaign_config>& configs,
                             const campaign_options& opt) {
  NB_REQUIRE(!configs.empty(), "campaign needs at least one configuration");
  NB_REQUIRE(opt.repeats >= 1, "campaign needs at least one repetition per configuration");
  NB_REQUIRE(opt.checkpoint_every >= 0, "checkpoint cadence must be non-negative");
  NB_REQUIRE(opt.checkpoint_every == 0 || !opt.journal_path.empty(),
             "intra-cell checkpointing needs a journal path (checkpoint files live beside it)");
  for (const auto& config : configs) {
    NB_REQUIRE(config.factory != nullptr || !config.process.kind.empty(),
               "campaign config '" + config.label + "' needs a factory or a registry spec");
    NB_REQUIRE(config.m >= 0 && config.m <= max_run_balls,
               "campaign config '" + config.label + "' has m outside [0, max_run_balls]");
    NB_REQUIRE(config.churn_occupancy >= 0 && config.churn_occupancy <= max_run_balls,
               "campaign config '" + config.label + "' has churn_occupancy outside "
               "[0, max_run_balls]");
    if (config.churn_occupancy > 0) {
      NB_REQUIRE(config.m <= (max_run_balls - config.churn_occupancy) / 2,
                 "campaign config '" + config.label +
                     "': churn occupancy + 2 * events must fit max_run_balls");
    }
    // Surface unknown kinds / bad parameters here, on the caller's thread:
    // pool tasks are noexcept by contract, so a spec error inside a worker
    // would terminate instead of throwing.
    if (!config.factory) (void)make_process(config.process);
  }

  const std::size_t total = configs.size() * opt.repeats;
  campaign_result out;
  out.repeats = opt.repeats;
  out.seed = opt.seed;
  out.cells.resize(total);

  // Resume: fold the journal's completed cells in before scheduling.
  std::vector<char> done(total, 0);
  std::vector<journal_entry> preserved;
  const std::string engine = run_engine::fingerprint_of(opt.engine);
  const journal_header header{configs.size(), opt.repeats, opt.seed,
                              grid_fingerprint(configs, engine)};
  if (opt.resume) {
    NB_REQUIRE(!opt.journal_path.empty(), "resume needs a journal path");
    auto replay = replay_journal(opt.journal_path);
    // A file with no valid campaign header is not ours to truncate: the
    // user may have pointed --journal at the wrong path.
    NB_REQUIRE(!replay.file_exists || replay.header_valid,
               "cannot resume: '" + opt.journal_path +
                   "' exists but is not a campaign journal; refusing to overwrite it");
    if (replay.header_valid) {
      NB_REQUIRE(replay.header.configs == header.configs &&
                     replay.header.repeats == header.repeats && replay.header.seed == header.seed,
                 "journal belongs to a different campaign (configs/repeats/seed mismatch)");
      NB_REQUIRE(replay.header.grid == header.grid,
                 "journal belongs to a different campaign (grid mismatch: the configuration "
                 "grid or the engine differs; this run's engine is '" + engine + "')");
      for (auto& entry : replay.entries) {
        NB_REQUIRE(entry.cell < total, "journal cell index out of range");
        NB_REQUIRE(entry.result.seed == derive_seed(opt.seed, entry.cell),
                   "journal cell seed does not match this campaign's derivation");
        out.cells[entry.cell] = entry.result;
        done[entry.cell] = 1;
      }
      preserved = std::move(replay.entries);
    }
  }

  journal_writer journal;
  if (!opt.journal_path.empty()) journal.open(opt.journal_path, header, preserved);

  std::vector<std::size_t> pending;
  pending.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    if (!done[index]) {
      pending.push_back(index);
    } else if (opt.checkpoint_every > 0) {
      // Journal-completed cell: any leftover mid-run checkpoint (e.g. the
      // kill landed between the journal append and the file removal) is
      // superseded -- drop it so nothing stale survives the campaign.
      std::remove(checkpoint_cell_path(opt.journal_path, index).c_str());
    }
  }
  out.cells_resumed = total - pending.size();
  out.cells_executed = pending.size();

  // Worker-count policy.  Explicit requests are honored (warned when
  // they oversubscribe); the *default* (threads == 0) used to mean "one
  // worker per core" even when every cell also runs threads_per_run
  // intra-run shard workers -- workers x threads_per_run threads on
  // hardware_concurrency cores, silent time-slicing.  Clamp the default
  // so the product fits the machine.
  std::size_t workers = opt.threads;
  const std::size_t per_run = std::max<std::size_t>(1, opt.engine.threads_per_run);
  const auto cores =
      static_cast<std::size_t>(std::max(1u, std::thread::hardware_concurrency()));
  if (workers == 0 && per_run > 1) {
    workers = std::max<std::size_t>(1, cores / per_run);
  }
  warn_if_oversubscribed(resolve_workers(workers) * per_run, "campaign workers x threads_per_run");

  // Pool tasks are noexcept by contract, but weighted cells can fail at
  // runtime (e.g. a fixed-weight config whose per-bin loads overflow the
  // guarded 32-bit representation mid-run).  Capture the first error and
  // rethrow it on the caller's thread instead of terminating; the journal
  // keeps every cell that completed, so --resume picks up after a fix.
  //
  // Scheduling is parallel_for's claim loop: each idle worker claims the
  // next pending cell, so heterogeneous cells (zipf vs uniform, kernel vs
  // fused, different m) never straggle behind a fixed hand-out order.
  // Determinism is untouched -- cell seeds derive from the cell *index*
  // and the aggregation below folds in index order, so the JSON is
  // byte-identical for any worker count and any claim order (enforced
  // by tests/test_orchestrator.cpp and tests/test_multicore.cpp).
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<std::size_t> restored_cells{0};
  parallel_for(pending.size(), workers, [&](std::size_t job) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error) return;  // fail fast: stop starting new cells
    }
    const std::size_t index = pending[job];
    const campaign_config& config = configs[index / opt.repeats];
    try {
      bool restored = false;
      run_result r = run_cell(config, index, derive_seed(opt.seed, index), opt, &restored);
      if (restored) restored_cells.fetch_add(1, std::memory_order_relaxed);
      out.cells[index] = r;
      journal.append({index, r});
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
  out.cells_restored = restored_cells.load(std::memory_order_relaxed);

  // Aggregate in cell-index order: deterministic for any worker count and
  // identical whether a cell ran fresh or was replayed from the journal.
  out.configs.reserve(configs.size());
  for (const auto& config : configs) {
    config_result cr;
    cr.config = config;
    out.configs.push_back(std::move(cr));
  }
  for (std::size_t index = 0; index < total; ++index) {
    out.configs[index / opt.repeats].aggregate.add(out.cells[index]);
  }
  return out;
}

campaign_result run_campaign(const sweep_grid& grid, const campaign_options& opt) {
  return run_campaign(make_configs(expand_grid(grid)), opt);
}

// ---------------------------------------------------------------------------
// Emission.

namespace {

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const unsigned char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {  // control characters would break strict parsers
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

}  // namespace

std::string campaign_result::to_json() const {
  std::string s;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n  \"campaign\": {\"seed\": %" PRIu64
                ", \"repeats\": %zu, \"configs\": %zu, \"cells\": %zu},\n  \"results\": [\n",
                seed, repeats, configs.size(), configs.size() * repeats);
  s += buf;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto& config = configs[c].config;
    const auto& agg = configs[c].aggregate;
    s += "    {\"label\": \"" + json_escape(config.label) + "\"";
    s += ", \"kind\": \"" + json_escape(config.process.kind) + "\"";
    s += ", \"param\": " + json_double(config.process.param);
    s += ", \"weighting\": \"" + json_escape(config.process.weighting) + "\"";
    s += ", \"sampler\": \"" + json_escape(config.process.sampler) + "\"";
    s += ", \"departures\": \"" + json_escape(config.process.departures) + "\"";
    std::snprintf(buf, sizeof buf, ", \"churn_occupancy\": %" PRId64,
                  static_cast<std::int64_t>(config.churn_occupancy));
    s += buf;
    std::snprintf(buf, sizeof buf, ", \"n\": %u, \"m\": %" PRId64 ", \"runs\": %zu,\n",
                  config.process.n, static_cast<std::int64_t>(config.m), agg.count());
    s += buf;
    s += "     \"gap\": {\"mean\": " + json_double(agg.gap().mean());
    s += ", \"stddev\": " + json_double(agg.gap_stddev());
    s += ", \"min\": " + json_double(agg.gap().min());
    s += ", \"max\": " + json_double(agg.gap().max());
    s += ", \"q25\": " + std::to_string(agg.gap_quantile(0.25));
    s += ", \"median\": " + std::to_string(agg.gap_quantile(0.5));
    s += ", \"q75\": " + std::to_string(agg.gap_quantile(0.75)) + "},\n";
    s += "     \"underload_gap_mean\": " + json_double(agg.underload_gap().mean());
    s += ", \"max_load_mean\": " + json_double(agg.max_load().mean());
    s += ",\n     \"gap_histogram\": [";
    const auto entries = agg.gap_histogram().entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) s += ", ";
      s += '[';
      s += std::to_string(entries[i].first);
      s += ", ";
      s += std::to_string(entries[i].second);
      s += ']';
    }
    s += "]}";
    s += c + 1 < configs.size() ? ",\n" : "\n";
  }
  s += "  ]\n}\n";
  return s;
}

void campaign_result::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  NB_REQUIRE(out.is_open(), "cannot open campaign JSON output '" + path + "'");
  out << to_json();
}

void campaign_result::write_csv(const std::string& path) const {
  csv_writer csv(path, {"label", "kind", "param", "weighting", "sampler", "departures",
                        "churn_occupancy", "n", "m", "runs", "mean_gap", "stddev_gap", "min_gap",
                        "max_gap", "gap_q25", "gap_median", "gap_q75", "mean_underload_gap",
                        "mean_max_load"});
  for (const auto& cr : configs) {
    const auto& config = cr.config;
    const auto& agg = cr.aggregate;
    csv.write_row({config.label, config.process.kind, csv_writer::field(config.process.param),
                   config.process.weighting, config.process.sampler, config.process.departures,
                   csv_writer::field(static_cast<std::int64_t>(config.churn_occupancy)),
                   csv_writer::field(static_cast<std::int64_t>(config.process.n)),
                   csv_writer::field(static_cast<std::int64_t>(config.m)),
                   csv_writer::field(static_cast<std::int64_t>(agg.count())),
                   csv_writer::field(agg.gap().mean()), csv_writer::field(agg.gap_stddev()),
                   csv_writer::field(agg.gap().min()), csv_writer::field(agg.gap().max()),
                   csv_writer::field(agg.gap_quantile(0.25)),
                   csv_writer::field(agg.gap_quantile(0.5)),
                   csv_writer::field(agg.gap_quantile(0.75)),
                   csv_writer::field(agg.underload_gap().mean()),
                   csv_writer::field(agg.max_load().mean())});
  }
}

}  // namespace nb
