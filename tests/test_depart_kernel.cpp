// The lane-interleaved SIMD departure kernel (core/kernel/kernel_depart)
// and its contract: per-bin departure counts are a pure function of
// (channel, lanes, n, snapshot, weight, k, seed) -- the ISA backend is
// execution-only and NEVER affects results.  Mirroring test_kernel.cpp,
// the suite pins
//   (1) the scalar backend of both channels to an independently written
//       replay of the documented draw order (drain: bounded(n) pairs plus
//       a raw tie draw, fuller-by-snapshot wins, drained-dry picks
//       re-served from the dedicated replay stream; random: bounded(n) /
//       bounded(B) attempt pairs accepted against remaining load),
//   (2) every vector backend to the scalar backend, bit for bit,
//       including the drain replay/fallback path and multi-block runs,
//   (3) the capacity guarantee (no bin is ever overdrawn) and the count
//       sum, so commit via load_state::apply_releases never trips,
//   (4) golden FNV values per channel so the sampling contract cannot
//       drift silently between releases,
//   (5) the engines' batched-departure routing: ISA- and thread-count
//       invariance, the bulk lease pop, and the warn_once diagnostics on
//       every silent serial fallback (no commit_departures, undersized
//       block, span-saturated snapshot), and the up-front refusal of a
//       request for more departures than there are resident balls.
// Drain calls hand the kernel the inverted snapshot bytes (what
// compact_snapshot::assign_inverted writes); references and golden values
// are stated over the plain snapshot.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/kernel/kernel_common.hpp"
#include "test_support.hpp"

namespace {

using namespace nb;

/// Every ISA the dispatch knows (excluding auto_detect), supported or not.
const std::vector<kernel_isa>& all_backends() {
  static const std::vector<kernel_isa> isas = {kernel_isa::scalar, kernel_isa::avx2,
                                               kernel_isa::avx512, kernel_isa::neon};
  return isas;
}

/// Backends that can execute on this machine (scalar always can).
std::vector<kernel_isa> supported_backends() {
  std::vector<kernel_isa> isas;
  for (const kernel_isa isa : all_backends()) {
    if (kernel_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

/// The allocation suite's snapshot shape (offsets cycle 0..4, padded for
/// the vector gathers) -- plenty of ties for the drain tie-break.
std::vector<std::uint8_t> make_snapshot(bin_count n) {
  std::vector<std::uint8_t> snap(static_cast<std::size_t>(n) + compact_snapshot::tail_padding, 0);
  for (bin_count i = 0; i < n; ++i) snap[i] = static_cast<std::uint8_t>(i % 5);
  return snap;
}

std::uint8_t span_of(const std::vector<std::uint8_t>& snap, bin_count n) {
  std::uint8_t mx = 0;
  for (bin_count i = 0; i < n; ++i) mx = snap[i] > mx ? snap[i] : mx;
  return mx;
}

/// The bytes kernel_depart reads for `channel`: the drain channel takes the
/// inverted snapshot (255 - offset, what compact_snapshot::assign_inverted
/// writes), the random channel the plain one.
std::vector<std::uint8_t> kernel_bytes(depart_channel channel,
                                       const std::vector<std::uint8_t>& snap, bin_count n) {
  if (channel != depart_channel::drain) return snap;
  std::vector<std::uint8_t> inv(snap.size(), 0);
  for (bin_count i = 0; i < n; ++i) inv[i] = static_cast<std::uint8_t>(255 - snap[i]);
  return inv;
}

/// Departure counts of one kernel_depart call over the plain snapshot
/// `snap` (inverted on the way in for drain).
std::vector<std::uint32_t> depart_counts(kernel_isa isa, std::size_t lanes,
                                         depart_channel channel, bin_count n,
                                         const std::vector<std::uint8_t>& snap, load_t base,
                                         weight_t w, step_count k, std::uint64_t seed) {
  std::vector<std::uint32_t> rel(n, 0);
  kernel_depart(isa, lanes, channel, n, kernel_bytes(channel, snap, n).data(), base,
                span_of(snap, n), w, rel.data(), k, seed);
  return rel;
}

// ---------------------------------------------------------------------------
// (1) The scalar backend vs independent replays of the documented laws.

/// An independent replay of the drain channel: per-lane xoshiro streams,
/// ball t uses lane t % lanes and draws bounded(n), bounded(n), one raw
/// tie word; the FULLER bin by snapshot offset wins (tie bit set -> first
/// index).  Drained-dry picks re-serve from rng_t(derive_seed(seed,
/// lanes)) under the serial eligibility law over remaining load, with the
/// deterministic fullest-bin fallback.  Valid for k within one fill block
/// of the driver (lane rotation restarts per block).
std::vector<std::uint32_t> drain_reference(std::size_t lanes, bin_count n,
                                           const std::vector<std::uint8_t>& snap, load_t base,
                                           weight_t w, step_count k, std::uint64_t seed) {
  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < lanes; ++l) lane_rng.emplace_back(derive_seed(seed, l));
  rng_t replay(derive_seed(seed, lanes));
  std::vector<std::uint32_t> rel(n, 0);
  const auto remaining = [&](std::uint32_t c) {
    return static_cast<weight_t>(base) + snap[c] - static_cast<weight_t>(rel[c]) * w;
  };
  const auto replay_one = [&] {
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const auto i = static_cast<std::uint32_t>(bounded(replay, n));
      const auto j = static_cast<std::uint32_t>(bounded(replay, n));
      const weight_t ri = remaining(i);
      const weight_t rj = remaining(j);
      if (ri < w && rj < w) continue;
      std::uint32_t c;
      if (ri != rj) {
        c = ri > rj ? i : j;
      } else {
        c = (replay.next() >> 63) != 0 ? i : j;
      }
      ++rel[c];
      return;
    }
    std::uint32_t best = 0;
    weight_t best_rem = remaining(0);
    for (bin_count i = 1; i < n; ++i) {
      if (remaining(i) > best_rem) {
        best = i;
        best_rem = remaining(i);
      }
    }
    ++rel[best];
  };
  for (step_count t = 0; t < k; ++t) {
    rng_t& rng = lane_rng[static_cast<std::size_t>(t) % lanes];
    const auto i1 = static_cast<std::uint32_t>(bounded(rng, n));
    const auto i2 = static_cast<std::uint32_t>(bounded(rng, n));
    const std::uint64_t c = rng.next();
    const std::uint32_t chosen = snap[i1] > snap[i2]   ? i1
                                 : snap[i2] > snap[i1] ? i2
                                 : ((c >> 63) != 0 ? i1 : i2);
    if (remaining(chosen) >= w) {
      ++rel[chosen];
    } else {
      replay_one();
    }
  }
  return rel;
}

TEST(DepartKernel, ScalarDrainMatchesDocumentedDrawOrder) {
  // base 12 over 97 bins: k = 1003 retires ~74% of the snapshot's total
  // load, so the fold's remaining-capacity check and the replay stream
  // are exercised heavily, not just the happy path.
  const bin_count n = 97;
  const std::size_t lanes = 4;
  const step_count k = 1003;
  const auto snap = make_snapshot(n);
  const auto expected = drain_reference(lanes, n, snap, 12, 1, k, 77);
  EXPECT_EQ(depart_counts(kernel_isa::scalar, lanes, depart_channel::drain, n, snap, 12, 1, k, 77),
            expected);
  EXPECT_EQ(std::accumulate(expected.begin(), expected.end(), std::int64_t{0}), k);
}

TEST(DepartKernel, ScalarWeightedDrainMatchesDocumentedDrawOrder) {
  // Fixed per-ball weight 3: eligibility, the remaining fold and the
  // capacity guarantee all scale by w.
  const bin_count n = 16;
  const std::size_t lanes = 3;
  const step_count k = 120;
  const auto snap = make_snapshot(n);
  const auto expected = drain_reference(lanes, n, snap, 30, 3, k, 5);
  const auto got =
      depart_counts(kernel_isa::scalar, lanes, depart_channel::drain, n, snap, 30, 3, k, 5);
  EXPECT_EQ(got, expected);
  for (bin_count i = 0; i < n; ++i) {
    EXPECT_LE(static_cast<weight_t>(got[i]) * 3, static_cast<weight_t>(30) + snap[i])
        << "bin " << i << " overdrawn";
  }
}

TEST(DepartKernel, ScalarRandomMatchesDocumentedDrawOrder) {
  // Per attempt, lane t % lanes draws bounded(n) (a bin) then bounded(B)
  // (acceptance, B frozen at base + span); the attempt serves iff the
  // draw lands under the bin's remaining load.  Valid within one attempt
  // block; base >> k keeps acceptance near 1 so that holds by a mile.
  const bin_count n = 97;
  const std::size_t lanes = 4;
  const step_count k = 1000;
  const load_t base = 10000;
  const auto snap = make_snapshot(n);
  const std::uint64_t bound = static_cast<std::uint64_t>(base) + span_of(snap, n);

  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < lanes; ++l) lane_rng.emplace_back(derive_seed(123, l));
  std::vector<std::uint32_t> expected(n, 0);
  step_count served = 0;
  std::size_t attempts = 0;
  while (served < k) {
    rng_t& rng = lane_rng[attempts % lanes];
    const auto j = static_cast<std::uint32_t>(bounded(rng, n));
    const auto u = static_cast<weight_t>(bounded(rng, bound));
    const weight_t rem = static_cast<weight_t>(base) + snap[j] - expected[j];
    if (rem > 0 && u < rem) {
      ++expected[j];
      ++served;
    }
    ++attempts;
  }
  ASSERT_LT(attempts, 8000u) << "reference must stay within one attempt block";

  EXPECT_EQ(
      depart_counts(kernel_isa::scalar, lanes, depart_channel::random, n, snap, base, 1, k, 123),
      expected);
}

// ---------------------------------------------------------------------------
// (2) Backend bit-parity.

TEST(DepartKernel, BackendsBitIdenticalAcrossShapes) {
  // Every supported backend must reproduce the scalar counts bit for bit
  // over awkward shapes, for both channels: remainder lanes (1, 3, 5),
  // tiny bins, and event counts that cross the driver's 8192-event block.
  const auto isas = supported_backends();
  ASSERT_GE(isas.size(), 1u);
  for (const bin_count n : {1u, 2u, 7u, 97u, 4096u}) {
    const auto snap = make_snapshot(n);
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                                    std::size_t{8}, std::size_t{64}}) {
      for (const step_count k : {step_count{1}, step_count{63}, step_count{1000},
                                 step_count{20000}}) {
        for (const depart_channel channel : {depart_channel::drain, depart_channel::random}) {
          // base 25000 keeps even the n = 1, k = 20000 shape within
          // capacity for both channels.
          const auto reference =
              depart_counts(kernel_isa::scalar, lanes, channel, n, snap, 25000, 1, k, 31337);
          EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), std::int64_t{0}), k);
          for (const kernel_isa isa : isas) {
            EXPECT_EQ(depart_counts(isa, lanes, channel, n, snap, 25000, 1, k, 31337), reference)
                << kernel_isa_name(isa) << " channel=" << static_cast<int>(channel) << " n=" << n
                << " lanes=" << lanes << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(DepartKernel, DrainFullExhaustionBitIdenticalAndGuarded) {
  // k equal to the snapshot's total load drains every bin to exactly
  // zero -- the replay stream and the deterministic fullest-bin fallback
  // both fire, on every backend, with identical counts.  One more event
  // must refuse with the weight-naming contract error.
  const bin_count n = 97;
  const auto snap = make_snapshot(n);
  const load_t base = 12;
  step_count capacity = 0;
  for (bin_count i = 0; i < n; ++i) capacity += base + snap[i];

  const auto reference =
      depart_counts(kernel_isa::scalar, 8, depart_channel::drain, n, snap, base, 1, capacity, 9);
  for (bin_count i = 0; i < n; ++i) {
    EXPECT_EQ(reference[i], static_cast<std::uint32_t>(base + snap[i])) << "bin " << i;
  }
  for (const kernel_isa isa : supported_backends()) {
    EXPECT_EQ(depart_counts(isa, 8, depart_channel::drain, n, snap, base, 1, capacity, 9),
              reference)
        << kernel_isa_name(isa);
    try {
      (void)depart_counts(isa, 8, depart_channel::drain, n, snap, base, 1, capacity + 1, 9);
      FAIL() << "draining past the total load must throw (" << kernel_isa_name(isa) << ")";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("weight 1"), std::string::npos) << e.what();
    }
  }
}

TEST(DepartKernel, UInt16AndUInt32RowsAgree) {
  const bin_count n = 53;
  const auto snap = make_snapshot(n);
  for (const depart_channel channel : {depart_channel::drain, depart_channel::random}) {
    for (const kernel_isa isa : supported_backends()) {
      std::vector<std::uint16_t> row16(n, 0);
      kernel_depart(isa, 8, channel, n, kernel_bytes(channel, snap, n).data(), 25000,
                    span_of(snap, n), 1, row16.data(), 9999, 5);
      const auto row32 = depart_counts(isa, 8, channel, n, snap, 25000, 1, 9999, 5);
      for (bin_index i = 0; i < n; ++i) {
        EXPECT_EQ(row16[i], row32[i])
            << kernel_isa_name(isa) << " channel=" << static_cast<int>(channel) << " bin " << i;
      }
    }
  }
}

TEST(DepartKernel, FixedScheduleBitIdenticalAcrossBackends) {
  // Both channels run each backend's one fill schedule (the AVX-512
  // two-round loop on drain): 30000 departures over 13 lanes end that
  // loop mid-round, and every backend must match the scalar reference.
  const bin_count n = 257;
  const auto snap = make_snapshot(n);
  for (const depart_channel channel : {depart_channel::drain, depart_channel::random}) {
    const auto reference =
        depart_counts(kernel_isa::scalar, 13, channel, n, snap, 500, 1, 30000, 2026);
    for (const kernel_isa isa : supported_backends()) {
      EXPECT_EQ(depart_counts(isa, 13, channel, n, snap, 500, 1, 30000, 2026), reference)
          << kernel_isa_name(isa) << " channel=" << static_cast<int>(channel);
    }
  }
}

// ---------------------------------------------------------------------------
// (3) Capacity guarantee and count sums.

TEST(DepartKernel, CountsSumToKAndRespectCapacity) {
  const bin_count n = 64;
  const auto snap = make_snapshot(n);
  for (const kernel_isa isa : supported_backends()) {
    // Weighted drain: rel[i] * w can never exceed the bin's snapshot load.
    const auto drained = depart_counts(isa, 8, depart_channel::drain, n, snap, 301, 3, 5000, 11);
    EXPECT_EQ(std::accumulate(drained.begin(), drained.end(), std::int64_t{0}), 5000);
    for (bin_count i = 0; i < n; ++i) {
      EXPECT_LE(static_cast<weight_t>(drained[i]) * 3, static_cast<weight_t>(301) + snap[i])
          << kernel_isa_name(isa) << " bin " << i;
    }
    // Random: unit quanta, same per-bin bound.
    const auto random = depart_counts(isa, 8, depart_channel::random, n, snap, 100, 1, 6000, 12);
    EXPECT_EQ(std::accumulate(random.begin(), random.end(), std::int64_t{0}), 6000);
    for (bin_count i = 0; i < n; ++i) {
      EXPECT_LE(random[i], static_cast<std::uint32_t>(100 + snap[i]))
          << kernel_isa_name(isa) << " bin " << i;
    }
  }
}

TEST(DepartKernel, LaneCountIsASamplingParameter) {
  const bin_count n = 512;
  const auto snap = make_snapshot(n);
  const auto l4 = depart_counts(kernel_isa::scalar, 4, depart_channel::drain, n, snap, 100, 1,
                                10000, 42);
  const auto l8 = depart_counts(kernel_isa::scalar, 8, depart_channel::drain, n, snap, 100, 1,
                                10000, 42);
  EXPECT_NE(l4, l8);
}

// ---------------------------------------------------------------------------
// (4) Golden contract regression.

TEST(DepartKernel, GoldenContractRegression) {
  // Frozen FNV-1a folds of the count vectors for (seed 42, n 101, lanes
  // 8, k 10^5, base 2000) on the cyclic snapshot, per channel.  EVERY
  // compiled backend must hit the same golden hash directly -- a contract
  // drift that slipped into all backends at once still fails here.
  const bin_count n = 101;
  const auto snap = make_snapshot(n);
  const auto fnv_of = [](const std::vector<std::uint32_t>& counts) {
    std::uint64_t fnv = 0xCBF29CE484222325ULL;
    for (const std::uint32_t c : counts) {
      fnv ^= c;
      fnv *= 0x100000001B3ULL;
    }
    return fnv;
  };
  for (const kernel_isa isa : supported_backends()) {
    const auto drained = depart_counts(isa, 8, depart_channel::drain, n, snap, 2000, 1, 100000, 42);
    EXPECT_EQ(std::accumulate(drained.begin(), drained.end(), std::int64_t{0}), 100000)
        << kernel_isa_name(isa);
    EXPECT_EQ(fnv_of(drained), 7532978351616542871ULL) << kernel_isa_name(isa);
    const auto random = depart_counts(isa, 8, depart_channel::random, n, snap, 2000, 1, 100000, 42);
    EXPECT_EQ(std::accumulate(random.begin(), random.end(), std::int64_t{0}), 100000)
        << kernel_isa_name(isa);
    EXPECT_EQ(fnv_of(random), 14558517916894183099ULL) << kernel_isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// (5) Contract surface.

TEST(DepartKernel, RejectsContractViolations) {
  const auto snap = make_snapshot(8);
  std::vector<std::uint32_t> rel(8, 0);
  // Lanes and bins, like kernel_run.
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 0, depart_channel::drain, 8, snap.data(), 100, 4,
                             1, rel.data(), 10, 1),
               contract_error);
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, kernel_max_lanes + 1, depart_channel::drain, 8,
                             snap.data(), 100, 4, 1, rel.data(), 10, 1),
               contract_error);
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::drain, 0, snap.data(), 100, 4,
                             1, rel.data(), 10, 1),
               contract_error);
  // The random channel retires unit quanta only, and needs resident load.
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::random, 8, snap.data(), 100, 4,
                             2, rel.data(), 10, 1),
               contract_error);
  const std::vector<std::uint8_t> empty(8 + compact_snapshot::tail_padding, 0);
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::random, 8, empty.data(), 0, 0,
                             1, rel.data(), 10, 1),
               contract_error);
  // Weight bounds.
  EXPECT_THROW(kernel_depart(kernel_isa::scalar, 8, depart_channel::drain, 8, snap.data(), 100, 4,
                             0, rel.data(), 10, 1),
               contract_error);
}

// ---------------------------------------------------------------------------
// (6) Engine routing: batched departures through the windowed engine, with
// one shard and with several.

any_process churned_process(const char* channel, bin_count n, step_count warm,
                            std::uint64_t seed, rng_t& rng) {
  any_process process{two_choice(n)};
  process.set_model(make_model("unit", "uniform", n, channel));
  rng = rng_t(seed);
  step_many(process, rng, warm);
  return process;
}

TEST(DepartEngineKernel, BatchedBitIdenticalAcrossIsaBackends) {
  for (const char* channel : {"drain", "random"}) {
    std::vector<load_t> reference;
    std::uint64_t reference_rng_state = 0;
    for (const kernel_isa isa : supported_backends()) {
      rng_t rng(7);
      any_process process = churned_process(channel, 64, 20000, 7, rng);
      shard_engine engine(shard_options{.shards = 1, .min_window = 1, .lanes = 8, .isa = isa});
      engine.depart_many(process, rng, 8000);
      EXPECT_EQ(process.state().balls(), 12000) << channel;
      if (reference.empty()) {
        reference = process.state().loads();
        reference_rng_state = rng.next();
      } else {
        EXPECT_EQ(process.state().loads(), reference)
            << channel << " " << kernel_isa_name(isa);
        EXPECT_EQ(rng.next(), reference_rng_state)
            << channel << " " << kernel_isa_name(isa);
      }
    }
    // The batched path is a declared sampling-contract change: it must
    // NOT reproduce the serial per-event stream.
    rng_t serial_rng(7);
    any_process serial = churned_process(channel, 64, 20000, 7, serial_rng);
    depart_many(serial, serial_rng, 8000);
    EXPECT_NE(serial.state().loads(), reference) << channel;
  }
}

TEST(DepartEngineShard, BatchedBitIdenticalAcrossThreadCountsAndBackends) {
  std::vector<load_t> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const kernel_isa isa : supported_backends()) {
      rng_t rng(21);
      any_process process = churned_process("drain", 64, 20000, 21, rng);
      shard_engine engine(shard_options{
          .threads = threads, .shards = 8, .min_window = 1, .lanes = 8, .isa = isa});
      engine.depart_many(process, rng, 8000);
      EXPECT_EQ(process.state().balls(), 12000);
      if (reference.empty()) {
        reference = process.state().loads();
      } else {
        EXPECT_EQ(process.state().loads(), reference)
            << threads << " threads, " << kernel_isa_name(isa);
      }
    }
  }
}

TEST(DepartEngine, DrainBlockIsOneKernelCallOverTheInvertedLiveSnapshot) {
  // Pins the one-shard drain block to the documented kernel call: one
  // kernel_depart over the inverted snapshot of the live loads, seeded by
  // the block token itself -- on the calling thread whatever the thread
  // count (a lone shard never overdraws, so nothing is clamped or
  // repaired).
  const bin_count n = 512;
  const step_count k = 6000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    rng_t rng(0);
    any_process process = churned_process("drain", n, 20000, 3, rng);
    load_state expected = process.state();
    rng_t expected_rng = rng;
    const std::uint64_t token = expected_rng.next();
    compact_snapshot inv;
    ASSERT_TRUE(inv.assign_inverted(expected));
    std::vector<std::uint32_t> rel(n, 0);
    kernel_depart(kernel_isa::scalar, 8, depart_channel::drain, n, inv.data(), inv.base(),
                  inv.max_off(), 1, rel.data(), k, token);
    expected.apply_releases(rel, 1, k);

    shard_engine engine(shard_options{.threads = threads, .shards = 1, .min_window = 1});
    engine.depart_many(process, rng, k);
    EXPECT_EQ(engine.threads(), 1u);
    EXPECT_EQ(engine.depart_phases().windows, 1);
    EXPECT_EQ(engine.depart_phases().merge_ns, 0);
    EXPECT_EQ(process.state().loads(), expected.loads()) << threads << " threads";
    EXPECT_EQ(rng.state(), expected_rng.state()) << threads << " threads";
  }
}

TEST(DepartEngineKernel, BulkLeasePopIsBitIdenticalToSerial) {
  // The lease channel is RNG-free FIFO popping: the engine's bulk path
  // must be the serial per-event loop exactly, stream position included.
  rng_t rng_a(3);
  any_process batched = churned_process("lease", 32, 5000, 3, rng_a);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.depart_many(batched, rng_a, 4000);

  rng_t rng_b(3);
  any_process serial = churned_process("lease", 32, 5000, 3, rng_b);
  depart_many(serial, rng_b, 4000);

  EXPECT_EQ(batched.state().loads(), serial.state().loads());
  EXPECT_EQ(batched.state().balls(), 1000);
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(DepartEngineKernel, WeightedDrainRetiresTheBallsActualWeight) {
  // Fixed per-ball weight 3: every batched departure must retire exactly
  // 3 load units, so total load tracks 3 * balls throughout.
  const bin_count n = 32;
  any_process process{two_choice(n)};
  process.set_model(make_model("fixed:3", "uniform", n, "drain"));
  rng_t rng(9);
  step_many(process, rng, 3000);
  ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 9000);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.depart_many(process, rng, 1000);
  EXPECT_EQ(process.state().balls(), 2000);
  EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 6000);
}

// ---------------------------------------------------------------------------
// (7) The silent-fallback diagnostics: every path that quietly serves a
// batched-departure request through the serial per-event loop must say so
// once (warn_once), and must still serve it bit-identically to the serial
// reference.

TEST(DepartEngineKernel, UndersizedBlocksFallBackToSerialWithDiagnostic) {
  rng_t rng_a(13);
  any_process via_engine = churned_process("drain", 64, 2000, 13, rng_a);
  const std::string key = "depart-engine-window/" + via_engine.name();
  shard_engine engine(shard_options{.shards = 1});  // default min_window = 4096
  engine.depart_many(via_engine, rng_a, 100);
  EXPECT_TRUE(warned(key)) << key;

  rng_t rng_b(13);
  any_process serial = churned_process("drain", 64, 2000, 13, rng_b);
  depart_many(serial, rng_b, 100);
  EXPECT_EQ(via_engine.state().loads(), serial.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(DepartEngineKernel, SpanSaturatedLoadsFallBackToSerialWithDiagnostic) {
  // Three fixed-weight-300 balls over two bins leave loads {600, 300}:
  // the 300-unit span exceeds the compact snapshot's 8-bit range, so the
  // batched path must decline, warn once, and serve serially.
  any_process process{two_choice(2)};
  process.set_model(make_model("fixed:300", "uniform", 2, "drain"));
  rng_t rng(1);
  step_many(process, rng, 3);
  ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 900);
  const std::string key = "depart-engine-span/" + process.name();
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.depart_many(process, rng, 1);
  EXPECT_TRUE(warned(key)) << key;
  EXPECT_EQ(process.state().balls(), 2);
  EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 600);
}

/// A minimal process with a per-event depart() but no commit_departures:
/// the engines must accept it, warn once, and run the serial loop.
struct bare_departer {
  load_state st{16};
  void step(rng_t& rng) { st.allocate(static_cast<bin_index>(bounded(rng, 16))); }
  void depart(rng_t& rng) {
    (void)rng;
    const auto& loads = st.loads();
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (loads[i] > 0) {
        st.release(static_cast<bin_index>(i), 1);
        return;
      }
    }
  }
  [[nodiscard]] const load_state& state() const { return st; }
  [[nodiscard]] std::string name() const { return "bare-departer"; }
};

// ---------------------------------------------------------------------------
// (8) Asking for more departures than there are resident balls: both
// engines refuse before the first block -- contract_error naming both
// counts, state and stream untouched -- instead of redrawing forever
// (random) or throwing inside a pool task (shard drain).

/// Serves `count` departures from `p` through engine `mode`: 0 = one
/// shard, 1 / 4 = the default 16 shards at that many threads.
void engine_depart(int mode, b_batch& p, rng_t& rng, step_count count) {
  shard_engine engine(mode == 0 ? shard_options{.shards = 1}
                                : shard_options{.threads = static_cast<std::size_t>(mode)});
  engine.depart_many(p, rng, count);
}

TEST(DepartEngine, MoreDeparturesThanResidentBallsThrowUpFront) {
  const bin_count n = 8192;
  struct ask {
    const char* channel;
    step_count resident;
    step_count request;
  };
  for (const ask& a : {ask{"random", 5000, 6000}, ask{"drain", 200, 4096}}) {
    for (const int mode : {0, 1, 4}) {
      b_batch p(n, n);
      p.set_model(make_model("unit", "uniform", n, a.channel));
      rng_t rng(4);
      step_many(p, rng, a.resident);
      const std::vector<load_t> loads = p.state().loads();
      const auto stream = rng.state();
      try {
        engine_depart(mode, p, rng, a.request);
        FAIL() << a.channel << " mode " << mode << " must refuse";
      } catch (const contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::to_string(a.request)), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(a.resident)), std::string::npos) << what;
      }
      EXPECT_EQ(p.state().loads(), loads) << a.channel << " mode " << mode;
      EXPECT_EQ(p.state().balls(), a.resident) << a.channel << " mode " << mode;
      EXPECT_EQ(rng.state(), stream) << a.channel << " mode " << mode;
    }
  }
}

TEST(DepartEngine, DepartingEveryResidentBallEmptiesTheSystem) {
  // The boundary of the guard: exactly the resident count is served, on
  // every engine, through the clamp/repair path at its most stressed.
  const bin_count n = 8192;
  for (const char* channel : {"random", "drain"}) {
    for (const int mode : {0, 1, 4}) {
      b_batch p(n, n);
      p.set_model(make_model("unit", "uniform", n, channel));
      rng_t rng(6);
      step_many(p, rng, 5000);
      engine_depart(mode, p, rng, 5000);
      EXPECT_EQ(p.state().balls(), 0) << channel << " mode " << mode;
      EXPECT_EQ(p.state().max_load(), 0) << channel << " mode " << mode;
    }
  }
}

TEST(DepartEngine, NonBatchDepartableFallsBackToSerialWithDiagnostic) {
  bare_departer process;
  rng_t rng(2);
  for (int i = 0; i < 50; ++i) process.step(rng);
  shard_engine kernel(shard_options{.shards = 1, .min_window = 1});
  kernel.depart_many(process, rng, 5);
  EXPECT_TRUE(warned("depart-engine/bare-departer"));
  EXPECT_EQ(process.state().balls(), 45);

  shard_engine shard(shard_options{.threads = 2, .min_window = 1});
  shard.depart_many(process, rng, 5);
  EXPECT_EQ(process.state().balls(), 40);
}

}  // namespace
