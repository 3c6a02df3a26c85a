#include "core/engine/shard_engine.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/cli.hpp"

namespace nb {

namespace {

/// `opt`, once its sampling parameters are checked: the engine checks them
/// before its pool exists, so a rejected count starts no thread.
shard_options checked(shard_options opt) {
  NB_REQUIRE(opt.shards >= 1 && opt.shards <= static_cast<std::size_t>(max_thread_flag),
             "shards got " + std::to_string(opt.shards) + "; it must be in [1, " +
                 std::to_string(max_thread_flag) + "]");
  NB_REQUIRE(opt.min_window >= 1, "min_window must be positive");
  return opt;
}

/// Replay attempts before the re-serve law falls back to the
/// deterministic fullest-bin scan.  Generous: a redraw only fails while
/// nearly every sampled pair is drained dry, so hitting the cap at all
/// means the block is retiring a large fraction of the snapshot's load.
constexpr int kDrainReplayAttempts = 4096;

}  // namespace

shard_engine::shard_engine(shard_options opt)
    : opt_(checked(opt)),
      isa_(resolve_kernel_isa(opt_.isa)),
      pool_(opt_.shards == 1 ? std::size_t{1} : opt_.threads) {
  // More workers than hardware threads only time-slices (results are
  // thread-count-independent by contract, so oversubscribing buys
  // nothing); this is the threads_per_run > cores trap, say so once.
  warn_if_oversubscribed(pool_.size(), "shard-engine threads_per_run");
  // One byte row and carry list per task of a block's shard fan-out.
  const std::size_t tasks = std::min(pool_.size(), opt_.shards);
  rows_.resize(tasks);
  carries_.resize(tasks);
}

void shard_engine::layout_ranges(bin_count n) {
  const std::uint64_t per_shard = (std::uint64_t{n} + opt_.shards - 1) / opt_.shards;
  range_bits_ = std::min(kMaxRangeBits, static_cast<unsigned>(std::bit_width(per_shard - 1)));
  range_count_ = (std::size_t{n} + (std::size_t{1} << range_bits_) - 1) >> range_bits_;
}

void shard_engine::count_range(std::size_t r, bin_count n) {
  const auto [lo, hi] = range_bounds(r, n);
  std::uint32_t* slice = merged_.data() + lo;
  const std::size_t width = hi - lo;
  std::fill_n(slice, width, 0);
  for (std::size_t w = 0; w < rows_.size(); ++w) {
    if (row_used_[w] == 0) continue;
    const std::uint8_t* low = rows_[w].data() + lo;
    for (std::size_t i = 0; i < width; ++i) slice[i] += low[i];
    for (const std::uint32_t c : carries_[w]) {
      if (c >= lo && c < hi) slice[c - lo] += 256;
    }
  }
}

void shard_engine::count_random_departures(const load_state& state, step_count k,
                                           std::uint64_t token) {
  const std::vector<load_t>& loads = state.loads();
  merged_.resize(loads.size());
  rng_t rng(token);
  step_count left = k;
  weight_t resident = state.total_weight();
  std::size_t i = 0;
  for (; i < loads.size() && left > 0; ++i) {
    const load_t load = loads[i];
    std::uint32_t c = 0;
    if (load > 0) {
      c = static_cast<std::uint32_t>(hypergeometric(rng, left, load, resident));
      left -= c;
      resident -= load;
    }
    merged_[i] = c;
  }
  std::fill(merged_.begin() + static_cast<std::ptrdiff_t>(i), merged_.end(), 0);
}

step_count shard_engine::clamp_range(std::size_t r, bin_count n, weight_t w) {
  const std::uint8_t* inv = snapshot_.data();
  const load_t base = snapshot_.base();
  // Copies, not references: merged_'s stores could otherwise alias them
  // and keep the clamp loop from vectorizing.
  const auto load = [inv, base = static_cast<std::uint32_t>(base)](std::size_t i) {
    return base + (inv[i] ^ 0xFF);
  };
  const auto capacity = [load, w](std::size_t i) {
    return static_cast<std::uint32_t>(load(i) / w);
  };
  const auto [lo, hi] = range_bounds(r, n);
  std::uint32_t* merged = merged_.data();
  const auto clamp = [&](const auto& cap_of) {
    // Every pick is counted, so the range's deficit is its clamped
    // excess.  The clamp rarely fires: the first loop only detects it (a
    // vectorizable reduction), the second clamps.
    std::uint32_t over = 0;
    for (std::size_t i = lo; i < hi; ++i) over |= merged[i] > cap_of(i) ? 1U : 0U;
    step_count deficit = 0;
    for (std::size_t i = lo; over != 0 && i < hi; ++i) {
      const std::uint32_t cap = cap_of(i);
      if (merged[i] > cap) {
        deficit += merged[i] - cap;
        merged[i] = cap;
      }
    }
    return deficit;
  };
  // Unit weights get their own loop: the 64-bit division costs more per
  // bin than the rest of the pass together.
  return w == 1 ? clamp(load) : clamp(capacity);
}

void shard_engine::reserve_deficit(bin_count n, weight_t w, std::uint64_t token) {
  step_count deficit = 0;
  for (const step_count d : range_deficits_) {
    deficit += d;
    if (d > 0) ++depart_phases_.clamped_ranges;
  }
  if (deficit == 0) return;
  depart_phases_.reserved_events += deficit;
  rng_t replay(derive_seed(token, opt_.shards == 1 ? kernel_lanes : opt_.shards));
  for (; deficit > 0; --deficit) {
    engine_detail::depart_replay(n, snapshot_.data(), snapshot_.base(), w, merged_.data(), replay);
  }
}

std::uint32_t engine_detail::depart_replay(bin_count n, const std::uint8_t* inv, load_t snap_base,
                                           weight_t w, std::uint32_t* rel, rng_t& replay) {
  const auto remaining = [&](std::uint32_t c) noexcept {
    return static_cast<weight_t>(snap_base) + (inv[c] ^ 0xFF) - static_cast<weight_t>(rel[c]) * w;
  };
  for (int attempt = 0; attempt < kDrainReplayAttempts; ++attempt) {
    const auto i = static_cast<std::uint32_t>(bounded(replay, n));
    const auto j = static_cast<std::uint32_t>(bounded(replay, n));
    const weight_t ri = remaining(i);
    const weight_t rj = remaining(j);
    // Serial drain's eligibility and selection laws, over remaining load.
    if (ri < w && rj < w) continue;
    std::uint32_t c;
    if (ri != rj) {
      c = ri > rj ? i : j;
    } else {
      c = (replay.next() >> 63) != 0 ? i : j;
    }
    ++rel[c];
    return c;
  }
  // Deterministic fallback: the fullest remaining bin, first index wins.
  std::uint32_t best = 0;
  weight_t best_rem = remaining(0);
  for (bin_count i = 1; i < n; ++i) {
    const weight_t r = remaining(i);
    if (r > best_rem) {
      best = i;
      best_rem = r;
    }
  }
  NB_REQUIRE(best_rem >= w, "drain departure block cannot retire weight " + std::to_string(w) +
                                ": no bin's remaining load covers it");
  ++rel[best];
  return best;
}

void shard_engine::step_many(any_process& process, rng_t& rng, step_count count) {
  process.step_many(rng, count, *this);
}

void shard_engine::depart_many(any_process& process, rng_t& rng, step_count count) {
  process.depart_many(rng, count, *this);
}

}  // namespace nb
