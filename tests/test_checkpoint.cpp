// Tests for mid-run checkpoint/restore (src/exp/checkpoint.*): the file
// container and its corruption diagnostics, the capture/restore identity
// checks, and the design invariant --
//
//     checkpoint + restore == uninterrupted, bit for bit,
//
// across every process kind, the serial/shard/kernel engines, and
// different thread counts; plus the campaign integration (intra-cell
// resume producing byte-identical aggregate JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;
using nb::testing::param_for;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nb_checkpoint_" + name;
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// ---------------------------------------------------------------------------
// CRC32.

TEST(Crc32, MatchesKnownVectors) {
  // The standard IEEE check value, plus a couple of fixed points.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog", 43), 0x414FA339u);
}

TEST(Crc32, SlicedPathAgreesWithBytewisePath) {
  // Lengths straddling the 8-byte slicing boundary all hash consistently
  // with their prefix-extended forms (regression guard on the fast path).
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 64; ++i) data.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  std::uint32_t previous = crc32(data.data(), 64);
  for (std::size_t len : {std::size_t{63}, std::size_t{9}, std::size_t{8}, std::size_t{7}}) {
    const std::uint32_t c = crc32(data.data(), len);
    EXPECT_NE(c, previous);  // truncation changes the checksum
    previous = c;
  }
}

// ---------------------------------------------------------------------------
// Container codec.

run_checkpoint sample_checkpoint(bin_count n = 32) {
  any_process process = make_process(process_spec{"two-choice", n, 0.0});
  rng_t rng(77);
  for (int i = 0; i < 100; ++i) process.step(rng);
  return capture_checkpoint(process, rng, "serial", 5, 77);
}

TEST(CheckpointCodec, RoundTripsEveryField) {
  const run_checkpoint ckpt = sample_checkpoint();
  const auto bytes = encode_checkpoint(ckpt);
  const run_checkpoint back = decode_checkpoint(bytes);
  EXPECT_EQ(back.process_name, ckpt.process_name);
  EXPECT_EQ(back.engine, ckpt.engine);
  EXPECT_EQ(back.cell, ckpt.cell);
  EXPECT_EQ(back.seed, ckpt.seed);
  EXPECT_EQ(back.balls_done, ckpt.balls_done);
  EXPECT_EQ(back.rng_state, ckpt.rng_state);
  EXPECT_EQ(back.process_state, ckpt.process_state);
}

TEST(CheckpointCodec, FileRoundTripAndMissingFile) {
  const std::string path = temp_path("roundtrip.ckpt");
  std::remove(path.c_str());
  EXPECT_FALSE(try_read_checkpoint_file(path).has_value());
  const run_checkpoint ckpt = sample_checkpoint();
  write_checkpoint_file(path, ckpt);
  EXPECT_FALSE(file_exists(path + ".tmp"));  // atomic write left no temp
  const auto back = try_read_checkpoint_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->process_state, ckpt.process_state);
  EXPECT_EQ(back->rng_state, ckpt.rng_state);
  std::remove(path.c_str());
}

TEST(CheckpointCodec, EveryTruncationThrowsCleanly) {
  const auto bytes = encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_checkpoint(cut), contract_error) << "truncated to " << len;
  }
}

TEST(CheckpointCodec, EveryByteFlipThrowsCleanly) {
  const auto bytes = encode_checkpoint(sample_checkpoint());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x5A;
    EXPECT_THROW((void)decode_checkpoint(mutated), contract_error) << "flipped byte " << i;
  }
}

TEST(CheckpointCodec, TrailingGarbageAndWrongHeaderThrow) {
  const auto bytes = encode_checkpoint(sample_checkpoint());
  auto longer = bytes;
  longer.push_back(0);
  EXPECT_THROW((void)decode_checkpoint(longer), contract_error);

  auto wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW((void)decode_checkpoint(wrong_magic), contract_error);

  auto wrong_version = bytes;
  wrong_version[6] = 99;  // version u32 follows the 6-byte magic
  EXPECT_THROW((void)decode_checkpoint(wrong_version), contract_error);
}

TEST(CheckpointCodec, CorruptFileDiagnosticNamesThePath) {
  const std::string path = temp_path("corrupt.ckpt");
  write_checkpoint_file(path, sample_checkpoint());
  {
    // Flip one payload byte in place.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    const char evil = 0x7F;
    f.write(&evil, 1);
  }
  try {
    (void)try_read_checkpoint_file(path);
    FAIL() << "corrupt checkpoint did not throw";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Restore validation.

TEST(CheckpointRestore, RejectsEveryIdentityMismatch) {
  const run_checkpoint ckpt = sample_checkpoint(32);
  rng_t rng(77);

  any_process wrong_kind = make_process(process_spec{"one-choice", 32, 0.0});
  EXPECT_THROW(restore_from_checkpoint(wrong_kind, rng, ckpt, "serial", 5, 77, 1000),
               contract_error);

  any_process process = make_process(process_spec{"two-choice", 32, 0.0});
  EXPECT_THROW(restore_from_checkpoint(process, rng, ckpt, "kernel[lanes=8]", 5, 77, 1000),
               contract_error);
  // A one-shard engine selected through threads_per_run is the serial
  // SIMD engine, stream and fingerprint alike: a checkpoint written under
  // the former shard[shards=1,...] stream must not resume under it.
  run_checkpoint one_shard = ckpt;
  one_shard.engine = "shard[shards=1,lanes=8]";
  const run_engine single(engine_config{.threads_per_run = 2, .shards = 1});
  EXPECT_EQ(single.fingerprint(), "kernel[lanes=8]");
  EXPECT_THROW(
      restore_from_checkpoint(process, rng, one_shard, single.fingerprint(), 5, 77, 1000),
      contract_error);
  EXPECT_THROW(restore_from_checkpoint(process, rng, ckpt, "serial", 6, 77, 1000), contract_error);
  EXPECT_THROW(restore_from_checkpoint(process, rng, ckpt, "serial", 5, 78, 1000), contract_error);
  // m below the checkpointed ball count: the checkpoint outlived its run.
  EXPECT_THROW(restore_from_checkpoint(process, rng, ckpt, "serial", 5, 77, 50), contract_error);

  // Same kind and name but a different bin count: the payload layer
  // catches what the identity fields cannot.
  any_process wrong_n = make_process(process_spec{"two-choice", 64, 0.0});
  EXPECT_THROW(restore_from_checkpoint(wrong_n, rng, ckpt, "serial", 5, 77, 1000), contract_error);

  // And the untampered restore passes.
  const step_count done = restore_from_checkpoint(process, rng, ckpt, "serial", 5, 77, 1000);
  EXPECT_EQ(done, 100);
  EXPECT_EQ(process.state().balls(), 100);
}

// ---------------------------------------------------------------------------
// The invariant: checkpoint + restore == uninterrupted, bit for bit.

/// Runs `spec` three ways under `eopt` -- uninterrupted, checkpointed
/// (capturing the first mark), and killed-at-that-mark-then-resumed
/// (through the full encode/decode codec) -- and asserts all three load
/// vectors and results are identical.
void expect_resume_identical(const process_spec& spec, step_count m, const engine_config& eopt,
                             step_count every, std::uint64_t seed = 4242) {
  any_process ref = make_process(spec);
  rng_t ref_rng(seed);
  run_engine ref_engine(eopt);
  const run_result ref_result = simulate_with(ref, m, ref_rng, ref_engine);

  any_process full = make_process(spec);
  rng_t full_rng(seed);
  run_engine full_engine(eopt);
  std::optional<run_checkpoint> ckpt;
  const run_result full_result =
      run_checkpointed(full, m, full_rng, full_engine, every, [&](step_count balls_done) {
        if (!ckpt) {
          ckpt = capture_checkpoint(full, full_rng, full_engine.fingerprint(), 0, seed);
          EXPECT_EQ(ckpt->balls_done, balls_done);
        }
      });
  // Checkpointing itself must not perturb the run.
  EXPECT_EQ(full.state().loads(), ref.state().loads()) << spec.kind << ": cadence changed results";
  EXPECT_EQ(full_result.gap, ref_result.gap);
  EXPECT_EQ(full_result.max_load, ref_result.max_load);
  ASSERT_TRUE(ckpt.has_value()) << spec.kind << ": no checkpoint mark fired";
  EXPECT_GT(ckpt->balls_done, 0);
  EXPECT_LT(ckpt->balls_done, m);

  // The kill: everything in memory is gone; only the encoded bytes
  // survive.  Fresh process, fresh RNG, restore, finish.
  const run_checkpoint survived = decode_checkpoint(encode_checkpoint(*ckpt));
  any_process resumed = make_process(spec);
  rng_t resumed_rng(seed ^ 0xABCDEF);  // seed irrelevant once state is set
  run_engine resumed_engine(eopt);
  const step_count done = restore_from_checkpoint(resumed, resumed_rng, survived,
                                                  resumed_engine.fingerprint(), 0, seed, m);
  EXPECT_EQ(done, survived.balls_done);
  const run_result resumed_result =
      run_checkpointed(resumed, m, resumed_rng, resumed_engine, every, {});
  EXPECT_EQ(resumed.state().loads(), ref.state().loads())
      << spec.kind << ": resumed run diverged from uninterrupted";
  EXPECT_EQ(resumed_result.gap, ref_result.gap);
  EXPECT_EQ(resumed_result.underload_gap, ref_result.underload_gap);
  EXPECT_EQ(resumed_result.max_load, ref_result.max_load);
  EXPECT_EQ(resumed_result.min_load, ref_result.min_load);
  EXPECT_EQ(resumed_result.balls, ref_result.balls);
}

class SerialResumeIdentity : public ::testing::TestWithParam<process_spec> {};

TEST_P(SerialResumeIdentity, ResumedEqualsUninterrupted) {
  expect_resume_identical(GetParam(), 4800, engine_config{}, 700);
}

/// Every registered kind: the explicit cases below (their parameters
/// chosen per kind, e.g. a whole-batch and a four-batch b), then each kind
/// they do not list at its param_for value -- so a process that forgets
/// part of its checkpoint state fails here as soon as it is registered.
std::vector<process_spec> resume_specs() {
  std::vector<process_spec> specs = {
      {"one-choice", 96, 0.0},         {"two-choice", 96, 0.0},
      {"d-choice", 96, 3.0},           {"one-plus-beta", 96, 0.5},
      {"g-bounded", 96, 2.0},          {"g-myopic", 96, 2.0},
      {"g-adv-boost", 96, 2.0},        {"g-adv-load", 96, 2.0},
      {"g-adv-load-uniform", 96, 2.0}, {"sigma-noisy-load", 96, 4.0},
      {"sigma-noisy-gauss", 96, 2.0},  {"b-batch", 96, 96.0},
      {"b-batch", 96, 384.0},          {"tau-delay", 96, 8.0},
      {"tau-delay-oldest", 96, 24.0},  {"tau-delay-random", 96, 5.0},
      {"mean-thinning", 96, 0.0},      {"noisy-mean-thinning", 96, 2.0},
      {"noisy-one-plus-beta", 96, 2.0}};
  for (const auto& [kind, description] : registered_process_kinds()) {
    const bool listed = std::any_of(specs.begin(), specs.end(),
                                    [&](const process_spec& spec) { return spec.kind == kind; });
    if (!listed) specs.push_back(process_spec{kind, 96, param_for(kind)});
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SerialResumeIdentity, ::testing::ValuesIn(resume_specs()),
    [](const ::testing::TestParamInfo<process_spec>& info) {
      std::string name = info.param.kind + "_" + std::to_string(static_cast<int>(info.param.param));
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

TEST(ResumeIdentity, DelayRingMidFillCheckpoint) {
  // The first mark lands while tau-Delay's ring is still FILLING (10
  // balls into a tau-1 = 49 capacity ring): the fill-phase cursor laws
  // must survive the round trip too.
  expect_resume_identical(process_spec{"tau-delay", 64, 50.0}, 400, engine_config{}, 10);
}

TEST(ResumeIdentity, ShardEngineAcrossKinds) {
  engine_config eopt;
  eopt.threads_per_run = 2;
  eopt.shards = 4;
  eopt.lanes = 4;
  // A window-parallel process (the engine's real path), a serial-fallback
  // process, and a window-probed always-zero process.
  expect_resume_identical(process_spec{"b-batch", 96, 480.0}, 4800, eopt, 700);
  expect_resume_identical(process_spec{"two-choice", 96, 0.0}, 4800, eopt, 700);
  expect_resume_identical(process_spec{"tau-delay", 96, 8.0}, 4800, eopt, 700);
}

TEST(ResumeIdentity, KernelEngine) {
  engine_config eopt;
  eopt.use_kernel = true;
  eopt.lanes = 4;
  expect_resume_identical(process_spec{"b-batch", 96, 480.0}, 4800, eopt, 700);
}

TEST(ResumeIdentity, RestoreUnderDifferentThreadCount) {
  // threads_per_run is execution-only and excluded from the engine
  // fingerprint: a checkpoint written under 1 worker restores under 3
  // (and vice versa) with bit-identical results.
  const process_spec spec{"b-batch", 96, 480.0};
  const std::uint64_t seed = 31337;
  const step_count m = 4800;
  engine_config one;
  one.threads_per_run = 1;
  one.shards = 4;
  engine_config three = one;
  three.threads_per_run = 3;

  any_process ref = make_process(spec);
  rng_t ref_rng(seed);
  run_engine ref_engine(three);
  const run_result ref_result = simulate_with(ref, m, ref_rng, ref_engine);

  any_process writer = make_process(spec);
  rng_t writer_rng(seed);
  run_engine writer_engine(one);
  std::optional<run_checkpoint> ckpt;
  (void)run_checkpointed(writer, m, writer_rng, writer_engine, 700, [&](step_count) {
    if (!ckpt) ckpt = capture_checkpoint(writer, writer_rng, writer_engine.fingerprint(), 0, seed);
  });
  ASSERT_TRUE(ckpt.has_value());

  any_process resumed = make_process(spec);
  rng_t resumed_rng(1);
  run_engine resumed_engine(three);
  ASSERT_EQ(writer_engine.fingerprint(), resumed_engine.fingerprint());
  restore_from_checkpoint(resumed, resumed_rng, *ckpt, resumed_engine.fingerprint(), 0, seed, m);
  const run_result resumed_result =
      run_checkpointed(resumed, m, resumed_rng, resumed_engine, 700, {});
  EXPECT_EQ(resumed.state().loads(), ref.state().loads());
  EXPECT_EQ(resumed_result.gap, ref_result.gap);
}

TEST(RunCheckpointed, NoCadenceMatchesPlainRun) {
  const process_spec spec{"sigma-noisy-load", 64, 4.0};
  for (const step_count every : {step_count{0}, step_count{100000}}) {
    any_process a = make_process(spec);
    rng_t rng_a(5);
    run_engine engine_a((engine_config{}));
    const run_result ra = simulate_with(a, 3200, rng_a, engine_a);

    any_process b = make_process(spec);
    rng_t rng_b(5);
    run_engine engine_b((engine_config{}));
    int marks = 0;
    const run_result rb =
        run_checkpointed(b, 3200, rng_b, engine_b, every, [&](step_count) { ++marks; });
    EXPECT_EQ(marks, 0);
    EXPECT_EQ(a.state().loads(), b.state().loads());
    EXPECT_EQ(ra.gap, rb.gap);
  }
}

// ---------------------------------------------------------------------------
// Non-checkpointable processes degrade, loudly.

/// Minimal allocation process WITHOUT checkpoint support, for the
/// degradation path.
class opaque_process {
 public:
  explicit opaque_process(bin_count n) : state_(n) {}
  void step(rng_t& rng) { deposit(state_, model_.weighting, sample_bin(rng, state_.n()), rng); }
  void step_many(rng_t& rng, step_count count) {
    const load_state::bulk_window window(state_, count);
    for (step_count t = 0; t < count; ++t) step(rng);
  }
  [[nodiscard]] const load_state& state() const noexcept { return state_; }
  void reset() { state_.reset(); }
  [[nodiscard]] std::string name() const { return "opaque"; }

 private:
  load_state state_;
  alloc_model model_;
};

static_assert(allocation_process<opaque_process>);
static_assert(!checkpointable_process<opaque_process>);

TEST(Checkpointable, ProbeAndThrowOnUnsupportedProcess) {
  any_process supported = make_process(process_spec{"two-choice", 16, 0.0});
  EXPECT_TRUE(supported.checkpointable());
  any_process opaque{opaque_process(16)};
  EXPECT_FALSE(opaque.checkpointable());
  state_writer w;
  EXPECT_THROW(opaque.save_checkpoint(w), contract_error);
  state_reader r(nullptr, 0);
  EXPECT_THROW(opaque.restore_checkpoint(r), contract_error);
}

// ---------------------------------------------------------------------------
// Campaign integration.

std::vector<campaign_config> small_configs(bin_count n, step_count m) {
  std::vector<campaign_config> configs;
  configs.push_back({"two-choice", {}, m, process_spec{"two-choice", n, 0.0}});
  configs.push_back({"b-batch/b=n", {}, m, process_spec{"b-batch", n, static_cast<double>(n)}});
  configs.push_back({"tau-delay/8", {}, m, process_spec{"tau-delay", n, 8.0}});
  return configs;
}

TEST(CampaignCheckpoint, RequiresJournalPath) {
  campaign_options opt;
  opt.repeats = 1;
  opt.checkpoint_every = 100;
  EXPECT_THROW((void)run_campaign(small_configs(32, 320), opt), contract_error);
}

TEST(CampaignCheckpoint, CompletedCampaignLeavesNoCheckpointFiles) {
  const std::string journal = temp_path("clean.jsonl");
  std::remove(journal.c_str());
  campaign_options opt;
  opt.repeats = 2;
  opt.seed = 11;
  opt.threads = 2;
  opt.journal_path = journal;
  opt.checkpoint_every = 150;
  const auto configs = small_configs(48, 1920);
  const auto result = run_campaign(configs, opt);
  EXPECT_EQ(result.cells_restored, 0u);
  for (std::size_t cell = 0; cell < configs.size() * opt.repeats; ++cell) {
    EXPECT_FALSE(file_exists(checkpoint_cell_path(journal, cell))) << "cell " << cell;
  }
  std::remove(journal.c_str());
}

TEST(CampaignCheckpoint, MidCellRestoreMatchesUninterruptedByteForByte) {
  const auto configs = small_configs(48, 1920);
  campaign_options base;
  base.repeats = 2;
  base.seed = 17;
  base.threads = 2;

  // Uninterrupted reference (no journal, no checkpoints).
  const std::string ref_json = run_campaign(configs, base).to_json();

  // Simulate a kill: a journal holding only the header (no finished
  // cells) plus ONE cell's mid-run checkpoint file on disk.
  const std::string journal = temp_path("restore.jsonl");
  std::remove(journal.c_str());
  campaign_options copt = base;
  copt.journal_path = journal;
  copt.checkpoint_every = 300;
  {
    // Let a full campaign write the journal so its header (with the grid
    // fingerprint) is authentic, then strip it back to header-only.
    (void)run_campaign(configs, copt);
    std::ifstream in(journal);
    std::string header_line;
    ASSERT_TRUE(std::getline(in, header_line));
    in.close();
    std::ofstream out(journal, std::ios::trunc);
    out << header_line << '\n';
  }
  // Re-create cell 3's state exactly as its in-campaign run would and
  // leave its first checkpoint behind, as if the kill landed right after.
  const std::size_t target = 3;
  {
    const campaign_config& config = configs[target / base.repeats];
    any_process process = make_process(config.process);
    rng_t rng(derive_seed(base.seed, target));
    run_engine engine(copt.engine);
    std::optional<run_checkpoint> ckpt;
    (void)run_checkpointed(process, config.m, rng, engine, copt.checkpoint_every,
                           [&](step_count) {
                             if (!ckpt) {
                               ckpt = capture_checkpoint(process, rng, engine.fingerprint(),
                                                         target, derive_seed(base.seed, target));
                             }
                           });
    ASSERT_TRUE(ckpt.has_value());
    write_checkpoint_file(checkpoint_cell_path(journal, target), *ckpt);
  }

  copt.resume = true;
  const auto resumed = run_campaign(configs, copt);
  EXPECT_EQ(resumed.cells_restored, 1u);
  EXPECT_EQ(resumed.cells_resumed, 0u);
  EXPECT_EQ(resumed.to_json(), ref_json);
  // The restored cell finished, so its checkpoint is gone too.
  EXPECT_FALSE(file_exists(checkpoint_cell_path(journal, target)));
  std::remove(journal.c_str());
}

TEST(CampaignCheckpoint, NonCheckpointableFactoryCellDegradesGracefully) {
  std::vector<campaign_config> configs;
  configs.push_back({"opaque (factory)", [] { return any_process(opaque_process(32)); }, 640});
  const std::string journal = temp_path("opaque.jsonl");
  std::remove(journal.c_str());
  campaign_options opt;
  opt.repeats = 2;
  opt.seed = 3;
  opt.journal_path = journal;
  opt.checkpoint_every = 100;
  const auto with_ckpt = run_campaign(configs, opt);  // warns once, completes

  campaign_options plain;
  plain.repeats = 2;
  plain.seed = 3;
  EXPECT_EQ(run_campaign(configs, plain).to_json(), with_ckpt.to_json());
  std::remove(journal.c_str());
}

// ---------------------------------------------------------------------------
// Journal hardening (atomic rewrite).

TEST(JournalWriter, AtomicRewriteLeavesOneCleanJournalAndNoTemp) {
  const std::string path = temp_path("journal.jsonl");
  std::remove(path.c_str());
  const journal_header header{2, 3, 42, 777};
  journal_entry preserved;
  preserved.cell = 1;
  preserved.result.seed = derive_seed(42, 1);
  preserved.result.balls = 100;
  preserved.result.gap = 2.5;
  {
    journal_writer writer;
    writer.open(path, header, {preserved});
    journal_entry fresh;
    fresh.cell = 4;
    fresh.result.seed = derive_seed(42, 4);
    fresh.result.balls = 100;
    writer.append(fresh);
  }
  EXPECT_FALSE(file_exists(path + ".tmp"));
  const auto replay = replay_journal(path);
  ASSERT_TRUE(replay.header_valid);
  EXPECT_EQ(replay.header, header);
  ASSERT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.entries[0].cell, 1u);
  EXPECT_EQ(replay.entries[0].result.gap, 2.5);
  EXPECT_EQ(replay.entries[1].cell, 4u);
  std::remove(path.c_str());
}

}  // namespace
