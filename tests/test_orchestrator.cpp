// Tests for the experiment orchestrator (src/exp/): worker-count
// bit-invariance of campaign results, journal checkpoint/resume equality,
// streaming-aggregator merge parity, sweep-grid expansion and the journal
// line codec.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nb_orchestrator_" + name;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

/// Eight mixed configurations (registry + factory); with repeats = 8 this
/// is the 64-cell campaign the acceptance criteria call for.
std::vector<campaign_config> mixed_configs(bin_count n, step_count m) {
  std::vector<campaign_config> configs;
  configs.push_back({"two-choice", {}, m, process_spec{"two-choice", n, 0.0}});
  configs.push_back({"one-choice", {}, m, process_spec{"one-choice", n, 0.0}});
  configs.push_back({"g-bounded/2", {}, m, process_spec{"g-bounded", n, 2.0}});
  configs.push_back({"sigma-noisy-load/4", {}, m, process_spec{"sigma-noisy-load", n, 4.0}});
  configs.push_back({"b-batch/b=n", {}, m, process_spec{"b-batch", n, static_cast<double>(n)}});
  configs.push_back({"one-plus-beta/0.5", {}, m, process_spec{"one-plus-beta", n, 0.5}});
  configs.push_back({"d-choice/3", {}, m, process_spec{"d-choice", n, 3.0}});
  configs.push_back({"factory two-choice", [n] { return any_process(two_choice(n)); }, m});
  return configs;
}

campaign_options small_options(std::size_t threads) {
  campaign_options opt;
  opt.repeats = 8;
  opt.seed = 99;
  opt.threads = threads;
  return opt;
}

// ---------------------------------------------------------------------------
// Grid expansion.

TEST(SweepGrid, ExpandsInDocumentedOrder) {
  sweep_grid grid;
  grid.kinds = {"g-bounded", "g-myopic"};
  grid.params = {1.0, 2.0, 4.0};
  grid.bins = {100, 200};
  grid.m_multiplier = 50;
  const auto points = expand_grid(grid);
  ASSERT_EQ(points.size(), 12u);
  // bins outermost, then kinds, then params.
  EXPECT_EQ(points[0].process.kind, "g-bounded");
  EXPECT_EQ(points[0].process.n, 100u);
  EXPECT_EQ(points[0].process.param, 1.0);
  EXPECT_EQ(points[0].m, 5000);
  EXPECT_EQ(points[0].label, "g-bounded/1@n=100");
  EXPECT_EQ(points[2].process.param, 4.0);
  EXPECT_EQ(points[3].process.kind, "g-myopic");
  EXPECT_EQ(points[6].process.n, 200u);
  EXPECT_EQ(points[6].m, 10000);
}

TEST(SweepGrid, MOverrideAndValidation) {
  sweep_grid grid;
  grid.kinds = {"two-choice"};
  grid.bins = {64};
  grid.m_override = 999;
  const auto points = expand_grid(grid);  // default params = {0.0}
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].m, 999);

  sweep_grid empty;
  EXPECT_THROW(expand_grid(empty), contract_error);
  sweep_grid no_bins;
  no_bins.kinds = {"two-choice"};
  EXPECT_THROW(expand_grid(no_bins), contract_error);
}

// ---------------------------------------------------------------------------
// Campaign determinism.

TEST(Campaign, SeedsDeriveFromFlatCellIndex) {
  const auto configs = mixed_configs(64, 640);
  const auto res = run_campaign(configs, small_options(2));
  ASSERT_EQ(res.cells.size(), configs.size() * 8);
  for (std::size_t index = 0; index < res.cells.size(); ++index) {
    EXPECT_EQ(res.cells[index].seed, derive_seed(99, index)) << "cell " << index;
    EXPECT_EQ(res.cells[index].balls, 640);
  }
  for (const auto& cr : res.configs) EXPECT_EQ(cr.aggregate.count(), 8u);
}

TEST(Campaign, MatchesManualSerialLoop) {
  const auto configs = mixed_configs(64, 640);
  const auto res = run_campaign(configs, small_options(4));
  // Re-run a few cells by hand with the documented seed derivation.
  for (const std::size_t index : {std::size_t{0}, std::size_t{13}, std::size_t{37}}) {
    auto process = make_process(configs[index / 8].process.kind.empty()
                                    ? process_spec{"two-choice", 64, 0.0}
                                    : configs[index / 8].process);
    rng_t rng(derive_seed(99, index));
    const auto expected = simulate(process, 640, rng);
    EXPECT_DOUBLE_EQ(res.cells[index].gap, expected.gap) << "cell " << index;
    EXPECT_EQ(res.cells[index].max_load, expected.max_load);
    EXPECT_EQ(res.cells[index].min_load, expected.min_load);
  }
}

TEST(Campaign, AggregateJsonByteIdenticalAcrossWorkerCounts) {
  const auto configs = mixed_configs(64, 640);
  ASSERT_GE(configs.size() * 8, 64u);  // the acceptance-criteria scale
  const auto json1 = run_campaign(configs, small_options(1)).to_json();
  const auto json4 = run_campaign(configs, small_options(4)).to_json();
  const auto json8 = run_campaign(configs, small_options(8)).to_json();
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(json1, json8);
  EXPECT_NE(json1.find("\"results\""), std::string::npos);
  EXPECT_NE(json1.find("b-batch/b=n"), std::string::npos);
}

TEST(Campaign, KernelRouteIsWorkerCountInvariant) {
  // Window large enough (>= min_window and >= n/4) that the kernel engine
  // actually engages, not just falls back to the serial loop.
  std::vector<campaign_config> configs;
  configs.push_back(
      {"b-batch/kernel", {}, 16384, process_spec{"b-batch", 2048, 8192.0}});
  campaign_options opt;
  opt.repeats = 4;
  opt.seed = 7;
  opt.engine.use_kernel = true;
  opt.threads = 1;
  const auto serial = run_campaign(configs, opt);
  opt.threads = 4;
  const auto parallel = run_campaign(configs, opt);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(Campaign, ValidatesInputsUpFront) {
  EXPECT_THROW(run_campaign(std::vector<campaign_config>{}, campaign_options{}), contract_error);

  std::vector<campaign_config> no_source;
  no_source.push_back({"bad", {}, 100, process_spec{}});
  EXPECT_THROW(run_campaign(no_source, campaign_options{}), contract_error);

  std::vector<campaign_config> bad_kind;
  bad_kind.push_back({"bad", {}, 100, process_spec{"no-such-process", 8, 0.0}});
  EXPECT_THROW(run_campaign(bad_kind, campaign_options{}), contract_error);

  std::vector<campaign_config> ok;
  ok.push_back({"ok", {}, 10, process_spec{"two-choice", 8, 0.0}});
  campaign_options zero_repeats;
  zero_repeats.repeats = 0;
  EXPECT_THROW(run_campaign(ok, zero_repeats), contract_error);
}

// ---------------------------------------------------------------------------
// Journal codec.

TEST(Journal, EntryLineRoundTripsDoublesExactly) {
  journal_entry e;
  e.cell = 42;
  e.result.seed = 0xDEADBEEFCAFEF00DULL;
  e.result.balls = 123456789;
  e.result.gap = 1.0 / 3.0;  // not representable in few digits
  e.result.underload_gap = 2.0 / 7.0;
  e.result.max_load = 1004;
  e.result.min_load = -3;
  const auto parsed = parse_journal_entry(journal_entry_line(e));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell, 42u);
  EXPECT_EQ(parsed->result.seed, e.result.seed);
  EXPECT_EQ(parsed->result.balls, e.result.balls);
  EXPECT_EQ(parsed->result.gap, e.result.gap);  // bitwise, not NEAR
  EXPECT_EQ(parsed->result.underload_gap, e.result.underload_gap);
  EXPECT_EQ(parsed->result.max_load, e.result.max_load);
  EXPECT_EQ(parsed->result.min_load, e.result.min_load);
}

TEST(Journal, RejectsTruncatedLines) {
  journal_entry e;
  e.cell = 7;
  e.result.seed = 1;
  e.result.balls = 100;
  e.result.gap = 4.0;
  e.result.underload_gap = 3.0;
  e.result.max_load = 104;
  e.result.min_load = 96;
  const auto line = journal_entry_line(e);
  EXPECT_TRUE(parse_journal_entry(line).has_value());
  // Any strict prefix is rejected (no trailing '}' => torn write).
  for (const std::size_t keep : {line.size() - 1, line.size() / 2, std::size_t{3}}) {
    EXPECT_FALSE(parse_journal_entry(line.substr(0, keep)).has_value()) << keep;
  }
}

TEST(Journal, HeaderRoundTripAndReplayOfMissingFile) {
  const journal_header h{12, 8, 0xABCDEF0123456789ULL, 0xFEEDF00DULL};
  const auto parsed = parse_journal_header(journal_header_line(h));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);

  const auto replay = replay_journal(temp_path("does_not_exist.jsonl"));
  EXPECT_FALSE(replay.file_exists);
  EXPECT_FALSE(replay.header_valid);
  EXPECT_TRUE(replay.entries.empty());
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.

TEST(Campaign, ResumeFromTruncatedJournalEqualsFreshRun) {
  const std::string journal = temp_path("resume.jsonl");
  const auto configs = mixed_configs(64, 640);

  auto opt = small_options(4);
  opt.journal_path = journal;
  const auto fresh = run_campaign(configs, opt);
  const auto fresh_json = fresh.to_json();
  EXPECT_EQ(fresh.cells_executed, 64u);
  EXPECT_EQ(fresh.cells_resumed, 0u);

  // Simulate an interrupted campaign: keep the header, the first 20
  // completed cells and a torn final write.
  const auto lines = read_lines(journal);
  ASSERT_EQ(lines.size(), 65u);  // header + 64 cells
  std::string truncated;
  for (std::size_t i = 0; i < 21; ++i) truncated += lines[i] + "\n";
  truncated += lines[21].substr(0, lines[21].size() / 2);  // torn write, no newline
  write_text(journal, truncated);

  opt.resume = true;
  const auto resumed = run_campaign(configs, opt);
  EXPECT_EQ(resumed.cells_resumed, 20u);
  EXPECT_EQ(resumed.cells_executed, 44u);
  EXPECT_EQ(resumed.to_json(), fresh_json);

  // The rewritten journal is clean and complete: resuming again is a no-op
  // that still reproduces the same bytes.
  const auto noop = run_campaign(configs, opt);
  EXPECT_EQ(noop.cells_resumed, 64u);
  EXPECT_EQ(noop.cells_executed, 0u);
  EXPECT_EQ(noop.to_json(), fresh_json);
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeWithMissingJournalRunsEverything) {
  const std::string journal = temp_path("resume_missing.jsonl");
  std::remove(journal.c_str());
  std::vector<campaign_config> configs;
  configs.push_back({"two-choice", {}, 320, process_spec{"two-choice", 32, 0.0}});
  campaign_options opt;
  opt.repeats = 4;
  opt.seed = 5;
  opt.journal_path = journal;
  opt.resume = true;
  const auto res = run_campaign(configs, opt);
  EXPECT_EQ(res.cells_executed, 4u);
  EXPECT_EQ(res.cells_resumed, 0u);
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeRejectsForeignJournal) {
  const std::string journal = temp_path("resume_foreign.jsonl");
  std::vector<campaign_config> configs;
  configs.push_back({"two-choice", {}, 320, process_spec{"two-choice", 32, 0.0}});
  campaign_options opt;
  opt.repeats = 4;
  opt.seed = 5;
  opt.journal_path = journal;
  (void)run_campaign(configs, opt);

  opt.resume = true;
  opt.seed = 6;  // different campaign: header seed mismatch
  EXPECT_THROW((void)run_campaign(configs, opt), contract_error);
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeRejectsSameShapedDifferentGrid) {
  // Same config count, repeats and seed -- so every per-cell seed check
  // would pass -- but a different grid (other m): the header's grid
  // fingerprint must refuse the mix.
  const std::string journal = temp_path("resume_grid.jsonl");
  std::vector<campaign_config> configs;
  configs.push_back({"two-choice", {}, 320, process_spec{"two-choice", 32, 0.0}});
  campaign_options opt;
  opt.repeats = 4;
  opt.seed = 5;
  opt.journal_path = journal;
  (void)run_campaign(configs, opt);

  configs[0].m = 640;
  configs[0].label = "two-choice";  // identical label, different workload
  opt.resume = true;
  EXPECT_THROW((void)run_campaign(configs, opt), contract_error);
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeRejectsJournalOfAnotherEngine) {
  // A journal written under use_kernel holds cells of the kernel sampling
  // contract: resuming it serially or on a four-shard engine would mix two
  // contracts, so both refuse with a message naming the mismatch.  The
  // same engine (any ISA) resumes.
  const std::string journal = temp_path("resume_engine.jsonl");
  std::vector<campaign_config> configs;
  configs.push_back({"b-batch", {}, 640, process_spec{"b-batch", 32, 32.0}});
  campaign_options opt;
  opt.repeats = 2;
  opt.seed = 5;
  opt.journal_path = journal;
  opt.engine = engine_config{.use_kernel = true};
  (void)run_campaign(configs, opt);

  opt.resume = true;
  for (const engine_config& other :
       {engine_config{}, engine_config{.threads_per_run = 2, .shards = 4}}) {
    opt.engine = other;
    try {
      (void)run_campaign(configs, opt);
      FAIL() << run_engine::fingerprint_of(other) << " must refuse a kernel journal";
    } catch (const contract_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("grid mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find("engine"), std::string::npos) << what;
      EXPECT_NE(what.find(run_engine::fingerprint_of(other)), std::string::npos) << what;
    }
  }
  opt.engine = engine_config{.use_kernel = true, .isa = kernel_isa::scalar};
  const auto resumed = run_campaign(configs, opt);
  EXPECT_EQ(resumed.cells_resumed, 2u);
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeRefusesToOverwriteNonJournalFile) {
  const std::string journal = temp_path("resume_not_a_journal.jsonl");
  write_text(journal, "important results the user typed the wrong path for\n");
  std::vector<campaign_config> configs;
  configs.push_back({"two-choice", {}, 320, process_spec{"two-choice", 32, 0.0}});
  campaign_options opt;
  opt.repeats = 2;
  opt.seed = 5;
  opt.journal_path = journal;
  opt.resume = true;
  EXPECT_THROW((void)run_campaign(configs, opt), contract_error);
  // The file must be untouched.
  const auto lines = read_lines(journal);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "important results the user typed the wrong path for");
  std::remove(journal.c_str());
}

// ---------------------------------------------------------------------------
// Streaming aggregation.

TEST(Aggregator, MergeMatchesSerialAccumulation) {
  std::vector<run_result> samples;
  for (int i = 0; i < 24; ++i) {
    run_result r;
    r.gap = 1.0 + 0.37 * i;
    r.underload_gap = 0.5 + 0.11 * i;
    r.max_load = 100 + i;
    r.min_load = 90 - i;
    samples.push_back(r);
  }
  cell_aggregator serial;
  for (const auto& r : samples) serial.add(r);
  cell_aggregator left, right, merged;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i < samples.size() / 2 ? left : right).add(samples[i]);
  }
  merged.merge(left);
  merged.merge(right);

  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_NEAR(merged.mean_gap(), serial.mean_gap(), 1e-12);
  EXPECT_NEAR(merged.gap_stddev(), serial.gap_stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.gap().min(), serial.gap().min());
  EXPECT_DOUBLE_EQ(merged.gap().max(), serial.gap().max());
  EXPECT_NEAR(merged.underload_gap().mean(), serial.underload_gap().mean(), 1e-12);
  EXPECT_NEAR(merged.max_load().mean(), serial.max_load().mean(), 1e-12);
  EXPECT_EQ(merged.gap_histogram().entries(), serial.gap_histogram().entries());
  EXPECT_EQ(merged.gap_quantile(0.5), serial.gap_quantile(0.5));
}

// ---------------------------------------------------------------------------
// Bench cell lists: per-run results read straight from campaign.cells.

TEST(CellList, FlatSeedsAndPerRunResults) {
  std::vector<campaign_config> cells;
  cells.push_back({"two-choice", [] { return any_process(two_choice(64)); }, 640});
  cells.push_back({"g-bounded", [] { return any_process(g_bounded(64, 2)); }, 640});
  campaign_options opt;
  opt.repeats = 5;
  opt.seed = 123;
  opt.threads = 2;
  const auto parallel = run_campaign(cells, opt);
  ASSERT_EQ(parallel.configs.size(), 2u);
  ASSERT_EQ(parallel.cells.size(), 10u);
  EXPECT_EQ(parallel.configs[0].aggregate.gap_histogram().total(), 5);
  // Flat cell-index seed derivation: cell = config * repeats + rep.
  EXPECT_EQ(parallel.cells[0].seed, derive_seed(123, 0));
  EXPECT_EQ(parallel.cells[5 + 2].seed, derive_seed(123, 5 + 2));

  opt.threads = 1;
  const auto serial = run_campaign(cells, opt);
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_DOUBLE_EQ(parallel.cells[5 + r].gap, serial.cells[5 + r].gap);
  }
}

}  // namespace
