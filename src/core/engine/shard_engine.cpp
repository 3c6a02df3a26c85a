#include "core/engine/shard_engine.hpp"

#include <bit>
#include <string>

#include "util/cli.hpp"

namespace nb {

shard_engine::shard_engine(shard_options opt)
    : opt_(opt), isa_(resolve_kernel_isa(opt.isa)) {
  // Checked before the pool exists: a rejected count starts no thread.
  NB_REQUIRE(opt.shards >= 1 && opt.shards <= static_cast<std::size_t>(max_thread_flag),
             "shards got " + std::to_string(opt.shards) + "; it must be in [1, " +
                 std::to_string(max_thread_flag) + "]");
  NB_REQUIRE(opt.min_window >= 1, "min_window must be positive");
  NB_REQUIRE(opt.lanes >= 1 && opt.lanes <= kernel_max_lanes,
             "kernel lanes must be in [1, kernel_max_lanes]");
  if (opt.shards > 1) {
    pool_.emplace(opt.threads);
    ranges_ = range_executor(*pool_, opt.shards);
    // More workers than hardware threads only time-slices (results are
    // thread-count-independent by contract, so oversubscribing buys
    // nothing); this is the threads_per_run > cores trap, say so once.
    warn_if_oversubscribed(pool_->size(), "shard-engine threads_per_run");
  }
}

std::uint16_t* shard_engine::scratch_row(std::size_t t, bin_count n) {
  if (scratch_rows_.size() <= t) scratch_rows_.resize(t + 1);
  if (scratch_rows_[t].size() != n) scratch_rows_[t].assign(n, 0);
  return scratch_rows_[t].data();
}

void shard_engine::layout_ranges(bin_count n, step_count k) {
  const std::uint64_t per_shard = (std::uint64_t{n} + opt_.shards - 1) / opt_.shards;
  range_bits_ = std::min(kMaxRangeBits, static_cast<unsigned>(std::bit_width(per_shard - 1)));
  range_count_ = (std::size_t{n} + (std::size_t{1} << range_bits_) - 1) >> range_bits_;
  picks_.resize(static_cast<std::size_t>(k));
  sorted_.resize(static_cast<std::size_t>(k));
  buckets_.resize(opt_.shards * bucket_stride());
}

void shard_engine::bucket_shard(std::size_t s, step_count begin, step_count count) {
  const unsigned bits = range_bits_;
  const auto mask = static_cast<std::uint32_t>((std::size_t{1} << bits) - 1);
  std::uint32_t* b = shard_buckets(s);
  std::fill_n(b, range_count_ + 1, 0);
  const std::uint32_t* picks = picks_.data() + begin;
  const auto size = static_cast<std::size_t>(count);
  for (std::size_t i = 0; i < size; ++i) ++b[picks[i] >> bits];
  auto at = static_cast<std::uint32_t>(begin);
  for (std::size_t r = 0; r <= range_count_; ++r) at += std::exchange(b[r], at);
  // Scattering advances b[r] to bucket r's end, which is bucket r + 1's
  // start; the shift below restores the starts.
  for (std::size_t i = 0; i < size; ++i) {
    sorted_[b[picks[i] >> bits]++] = static_cast<std::uint16_t>(picks[i] & mask);
  }
  for (std::size_t r = range_count_; r > 0; --r) b[r] = b[r - 1];
  b[0] = static_cast<std::uint32_t>(begin);
}

void shard_engine::count_range(std::size_t r, bin_count n) {
  const auto [lo, hi] = range_bounds(r, n);
  std::uint32_t* slice = merged_.data() + lo;
  std::fill(slice, merged_.data() + hi, 0);
  for (std::size_t s = 0; s < opt_.shards; ++s) {
    const std::uint32_t* b = shard_buckets(s);
    for (std::uint32_t j = b[r]; j < b[r + 1]; ++j) ++slice[sorted_[j]];
  }
}

void shard_engine::settle_departures(depart_channel channel, bin_count n, step_count k,
                                     weight_t w, std::uint64_t token, bool checked) {
  const bool drain = channel == depart_channel::drain;
  const std::uint8_t* snap = snapshot_.data();
  const load_t base = snapshot_.base();
  const std::uint8_t mask = drain ? 0xFF : 0;
  // Copies, not references: merged_'s stores could otherwise alias them
  // and keep the clamp loop from vectorizing.
  const auto load = [snap, base = static_cast<std::uint32_t>(base), mask](std::size_t i) {
    return base + (snap[i] ^ mask);
  };
  const auto capacity = [load, w](std::size_t i) {
    return w == 1 ? load(i) : static_cast<std::uint32_t>(load(i) / w);
  };
  // A range's deficit is positive exactly when its clamp fired.
  range_deficits_.resize(range_count_);
  const auto count_and_clamp = [&](std::size_t r) {
    range_deficits_[r] = 0;
    count_range(r, n);
    const auto [lo, hi] = range_bounds(r, n);
    std::uint32_t* merged = merged_.data();
    const auto clamp = [&](const auto& cap_of) {
      // Every pick is counted, so the range's deficit is its clamped
      // excess.  The clamp rarely fires: the first loop only detects it
      // (a vectorizable reduction), the second clamps.
      std::uint32_t over = 0;
      for (std::size_t i = lo; i < hi; ++i) over |= merged[i] > cap_of(i) ? 1U : 0U;
      if (over == 0) return;
      step_count deficit = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t cap = cap_of(i);
        if (merged[i] > cap) {
          deficit += merged[i] - cap;
          merged[i] = cap;
        }
      }
      range_deficits_[r] = deficit;
    };
    // Unit weights get their own loop: the 64-bit division costs more
    // per bin than the rest of the pass together.
    if (w == 1) {
      clamp(load);
    } else {
      clamp(capacity);
    }
  };
  run_ranges(count_and_clamp);
  const auto clamped_ranges = [&] {
    return std::count_if(range_deficits_.begin(), range_deficits_.end(),
                         [](step_count d) { return d > 0; });
  };
  if (!checked && clamped_ranges() > 0) {
    // Recount each clamped range shard by shard in one scratch row (the
    // ranges are disjoint, so their tasks share it), flagging the shards
    // that overdrew a bin on their own.
    std::uint16_t* row = scratch_row(0, n);
    overdrawn_.assign(range_count_ * opt_.shards, 0);
    run_ranges([&](std::size_t r) {
      if (range_deficits_[r] == 0) return;
      const std::size_t lo = range_bounds(r, n).first;
      for (std::size_t s = 0; s < opt_.shards; ++s) {
        const std::uint32_t* b = shard_buckets(s);
        bool overdrew = false;
        for (std::uint32_t j = b[r]; j < b[r + 1]; ++j) {
          const std::size_t c = lo + sorted_[j];
          overdrew |= static_cast<std::uint32_t>(++row[c]) > capacity(c);
        }
        for (std::uint32_t j = b[r]; j < b[r + 1]; ++j) row[lo + sorted_[j]] = 0;
        overdrawn_[r * opt_.shards + s] = overdrew ? 1 : 0;
      }
    });
    redo_.clear();
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      bool overdrew = false;
      for (std::size_t r = 0; r < range_count_; ++r) {
        overdrew |= overdrawn_[r * opt_.shards + s] != 0;
      }
      if (overdrew) redo_.push_back(s);
    }
    // Each recomputing task needs its own row.
    for (std::size_t t = 1; t < std::min(shard_tasks(), redo_.size()); ++t) {
      (void)scratch_row(t, n);
    }
    pool_->for_each(redo_.size(), [&](std::size_t i, std::size_t task) {
      const std::size_t s = redo_[i];
      const step_count begin = shard_begin(k, s);
      const step_count events = shard_share(k, s);
      std::uint16_t* scratch = scratch_rows_[task].data();
      std::uint32_t* served = picks_.data() + begin;
      kernel_depart(isa_, opt_.lanes, channel, n, snap, base, snapshot_.max_off(), w, scratch,
                    events, shard_stream_seed(token, s), served);
      for (step_count e = 0; e < events; ++e) scratch[served[e]] = 0;
      bucket_shard(s, begin, events);
    });
    depart_phases_.recomputed_shards += static_cast<step_count>(redo_.size());
    if (!redo_.empty()) run_ranges(count_and_clamp);
  }
  depart_phases_.clamped_ranges += clamped_ranges();
  if (drain) drain_checked_ = 2 * clamped_ranges() > static_cast<std::ptrdiff_t>(range_count_);
  step_count deficit = 0;
  for (const step_count d : range_deficits_) deficit += d;
  depart_phases_.reserved_events += deficit;
  rng_t replay(derive_seed(token, opt_.shards));
  for (; deficit > 0; --deficit) {
    depart_replay(channel, n, snap, base, snapshot_.max_off(), w, merged_.data(), replay);
  }
}

void shard_engine::step_many(any_process& process, rng_t& rng, step_count count) {
  process.step_many(rng, count, *this);
}

void shard_engine::depart_many(any_process& process, rng_t& rng, step_count count) {
  process.depart_many(rng, count, *this);
}

}  // namespace nb
