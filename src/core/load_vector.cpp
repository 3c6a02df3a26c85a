#include "core/load_vector.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

namespace nb {

load_state::load_state(bin_count n) {
  NB_REQUIRE(n >= 1, "need at least one bin");
  loads_.assign(n, 0);
  levels_.reset(n);
}

void load_state::reset() {
  std::fill(loads_.begin(), loads_.end(), 0);
  levels_.reset(n());
  balls_ = 0;
  extra_weight_ = 0;
  levels_ok_ = true;
  // Keep the lease channel configured, but no balls are resident anymore.
  lease_head_ = 0;
  lease_count_ = 0;
}

namespace {

// The snapshot encoder and the commit pass each have a second build
// compiled for AVX2, picked at run time when the CPU has it.
// The portable x86 baseline is SSE2, which narrows 32-bit loads to bytes
// through pack sequences and has no 32-bit min/max, so these loops are
// instruction-bound there at n = 10^6 (on a 4-core AVX-512 Xeon VM the
// AVX2 builds of the encoder and the add pass measured ~30% and ~20%
// faster).  Same loop, same results: execution-only.
#if defined(__x86_64__) || defined(__i386__)
#define NB_TGT_AVX2 __attribute__((target("avx2")))
#else
#define NB_TGT_AVX2
#endif

bool use_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return avx2;
#else
  return false;
#endif
}

/// Minimum and maximum of loads [lo, hi) (the identities when empty).
struct load_span {
  load_t mn = std::numeric_limits<load_t>::max();
  load_t mx = std::numeric_limits<load_t>::min();
};

load_span span_of(const load_t* x, std::size_t lo, std::size_t hi) {
  load_t mn = std::numeric_limits<load_t>::max();
  load_t mx = std::numeric_limits<load_t>::min();
  for (std::size_t i = lo; i < hi; ++i) {
    mn = x[i] < mn ? x[i] : mn;
    mx = x[i] > mx ? x[i] : mx;
  }
  return {mn, mx};
}

/// Exact minimum and maximum of a non-empty load vector, by bin range
/// through `exec`.
load_span load_range(const std::vector<load_t>& loads, const range_executor& exec) {
  NB_ASSERT(!loads.empty());
  std::vector<load_span> part(exec.ranges());
  exec.run([&](std::size_t r) {
    const auto [lo, hi] = exec.bounds(r, loads.size());
    part[r] = span_of(loads.data(), lo, hi);
  });
  load_span all;
  for (const load_span& p : part) {  // empty ranges keep the identities
    all.mn = p.mn < all.mn ? p.mn : all.mn;
    all.mx = p.mx > all.mx ? p.mx : all.mx;
  }
  return all;
}

/// The snapshot encoder's narrowing map, dst[i] = (src[i] - mn) ^ mask.
[[gnu::always_inline]] inline void encode_offsets(const load_t* src, std::uint8_t* dst,
                                                  std::size_t n, load_t mn, std::uint8_t mask) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(static_cast<std::uint8_t>(src[i] - mn) ^ mask);
  }
}

NB_TGT_AVX2 void encode_offsets_avx2(const load_t* src, std::uint8_t* dst, std::size_t n,
                                     load_t mn, std::uint8_t mask) {
  encode_offsets(src, dst, n, mn, mask);
}

/// One range's sweep of a commit: its new loads' min and max, the sum of
/// its counts, and whether any bin failed the per-bin check.
struct swept {
  load_t mn;
  load_t mx;
  step_count count;
  bool failed;
};

/// The commit sweep over bins [lo, hi): loads[i] += row[i] * w, or -= for
/// a release, checking each bin against the pre-sweep load in the same
/// pass -- an increment must keep it within 32 bits (fixed weights only:
/// unit weights are bounded by the total-weight ceiling), a release must
/// not take more than it holds.  The store wraps modulo 2^32, so a failed
/// range is restored exactly by unsweep().
template <bool Release, bool Unit, typename Count>
[[gnu::always_inline]] inline swept sweep(load_t* loads, const Count* row, weight_t w,
                                          std::size_t lo, std::size_t hi) {
  constexpr auto bin_cap = static_cast<weight_t>(std::numeric_limits<load_t>::max());
  load_t mn = std::numeric_limits<load_t>::max();
  load_t mx = std::numeric_limits<load_t>::min();
  step_count count = 0;
  std::uint32_t failed = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const load_t old = loads[i];
    std::uint32_t d;
    if constexpr (Unit) {
      d = row[i];
      if constexpr (Release) failed |= d > static_cast<std::uint32_t>(old) ? 1U : 0U;
    } else {
      const weight_t wide = static_cast<weight_t>(row[i]) * w;
      if constexpr (Release) {
        failed |= wide > old ? 1U : 0U;
      } else {
        failed |= static_cast<weight_t>(old) + wide > bin_cap ? 1U : 0U;
      }
      d = static_cast<std::uint32_t>(wide);
    }
    const auto x = static_cast<load_t>(Release ? static_cast<std::uint32_t>(old) - d
                                               : static_cast<std::uint32_t>(old) + d);
    loads[i] = x;
    mn = x < mn ? x : mn;
    mx = x > mx ? x : mx;
    count += row[i];
  }
  return {mn, mx, count, failed != 0};
}

template <bool Release, bool Unit, typename Count>
NB_TGT_AVX2 swept sweep_avx2(load_t* loads, const Count* row, weight_t w, std::size_t lo,
                             std::size_t hi) {
  return sweep<Release, Unit>(loads, row, w, lo, hi);
}

template <bool Release, bool Unit, typename Count>
swept sweep_on_cpu(load_t* loads, const Count* row, weight_t w, std::size_t lo, std::size_t hi) {
  return use_avx2() ? sweep_avx2<Release, Unit>(loads, row, w, lo, hi)
                    : sweep<Release, Unit>(loads, row, w, lo, hi);
}

/// Bin i's full count: its row entry plus 2^(8 sizeof(Count)) per carry
/// entry equal to i.
template <typename Count>
weight_t full_count(const Count* row, const std::vector<std::uint32_t>& carries, std::size_t i) {
  constexpr weight_t carry = weight_t{std::numeric_limits<Count>::max()} + 1;
  return static_cast<weight_t>(row[i]) +
         carry * static_cast<weight_t>(std::count(carries.begin(), carries.end(), i));
}

/// Reverts sweep() over bins [lo, hi).
template <typename Count>
void unsweep(load_t* loads, const Count* row, weight_t w, bool release, std::size_t lo,
             std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const auto d = static_cast<std::uint32_t>(static_cast<weight_t>(row[i]) * w);
    const auto old = static_cast<std::uint32_t>(loads[i]);
    loads[i] = static_cast<load_t>(release ? old + d : old - d);
  }
}

}  // namespace

bool compact_snapshot::assign(const std::vector<load_t>& loads, const range_executor& exec) {
  const load_span span = load_range(loads, exec);
  return assign(loads, span.mn, span.mx, 0, exec);
}

bool compact_snapshot::assign(const load_state& state, const range_executor& exec) {
  return assign(state.loads(), state.min_load(), state.max_load(), 0, exec);
}

bool compact_snapshot::assign_inverted(const std::vector<load_t>& loads,
                                       const range_executor& exec) {
  const load_span span = load_range(loads, exec);
  return assign(loads, span.mn, span.mx, 0xFF, exec);
}

bool compact_snapshot::assign_inverted(const load_state& state, const range_executor& exec) {
  return assign(state.loads(), state.min_load(), state.max_load(), 0xFF, exec);
}

bool compact_snapshot::assign(const std::vector<load_t>& loads, load_t mn, load_t mx,
                              std::uint8_t mask, const range_executor& exec) {
  NB_ASSERT(!loads.empty() && mn <= mx);
  NB_REQUIRE(exec.covers(loads.size()), "range executor must cover every bin");
  base_ = mn;
  ok_ = (mx - mn) <= 255;
  if (!ok_) return false;
  span_ = static_cast<std::uint8_t>(mx - mn);
  n_ = loads.size();
  off_.resize(n_ + tail_padding);
  // Pointers and length in locals, not members: a byte store may alias
  // off_'s and n_'s own storage, so a loop over the members reloads them
  // per element and never vectorizes.
  const load_t* src = loads.data();
  std::uint8_t* dst = off_.data();
  const std::size_t n = n_;
  exec.run([&](std::size_t r) {
    const auto [lo, hi] = exec.bounds(r, n);
    if (use_avx2()) {
      encode_offsets_avx2(src + lo, dst + lo, hi - lo, mn, mask);
    } else {
      encode_offsets(src + lo, dst + lo, hi - lo, mn, mask);
    }
  });
  std::fill_n(dst + n, tail_padding, std::uint8_t{0});
  return true;
}

void level_index::begin_ranges(std::size_t ranges, std::size_t chunk) {
  // Slots a cache line apart (plus a line of slack), so neighbouring
  // ranges never count into a shared line.
  constexpr std::size_t line = 64 / sizeof(bin_count);
  slot_stride_ = (std::min(chunk, slot_counters) + 2 * line - 1) / line * line;
  slots_.resize(ranges * slot_stride_);
  slot_min_.assign(ranges, 0);
  slot_levels_.assign(ranges, 0);
}

void level_index::count_range(std::size_t r, const load_t* x, std::size_t lo, std::size_t hi,
                              load_t mn, load_t mx) noexcept {
  if (lo >= hi) return;
  NB_ASSERT(mn <= mx);
  // Within the range, bin i counts into sub-histogram i % ways:
  // consecutive bins at one level (the common case -- spans are tiny)
  // then increment `ways` different counters instead of queueing on one
  // counter's store-to-load forwarding.
  const std::size_t room = std::min(hi - lo, slot_counters);
  const auto wide = static_cast<std::uint64_t>(static_cast<std::int64_t>(mx) - mn) + 1;
  if (wide > room) return;  // merge_ranges counts it
  const auto levels = static_cast<std::size_t>(wide);
  const std::size_t ways = levels * count_ways <= room ? count_ways : 1;
  bin_count* h = slots_.data() + r * slot_stride_;
  std::fill_n(h, levels * ways, 0);
  std::size_t i = lo;
  if (ways == count_ways) {
    for (; i + count_ways <= hi; i += count_ways) {
      for (std::size_t k = 0; k < count_ways; ++k) {
        ++h[k * levels + static_cast<std::size_t>(x[i + k] - mn)];
      }
    }
  }
  for (; i < hi; ++i) ++h[static_cast<std::size_t>(x[i] - mn)];
  for (std::size_t k = 1; k < ways; ++k) {
    for (std::size_t l = 0; l < levels; ++l) h[l] += h[k * levels + l];
  }
  slot_min_[r] = mn;
  slot_levels_[r] = static_cast<load_t>(levels);
}

bool level_index::merge_ranges(const std::vector<load_t>& loads, load_t mn, load_t mx,
                               const range_executor& exec) {
  NB_ASSERT(mn <= mx && slot_levels_.size() == exec.ranges());
  if (mx - mn > max_dense_span) return false;
  base_ = mn;
  min_ = mn;
  max_ = mx;
  const std::size_t n = loads.size();
  n_ = static_cast<bin_count>(n);
  counts_.assign(static_cast<std::size_t>(mx - mn) + 1, 0);
  for (std::size_t r = 0; r < slot_levels_.size(); ++r) {
    if (slot_levels_[r] > 0) {
      const bin_count* h = slots_.data() + r * slot_stride_;
      bin_count* to = counts_.data() + static_cast<std::size_t>(slot_min_[r] - mn);
      for (load_t l = 0; l < slot_levels_[r]; ++l) to[l] += h[l];
    } else {
      const auto [lo, hi] = exec.bounds(r, n);
      for (std::size_t i = lo; i < hi; ++i) ++counts_[static_cast<std::size_t>(loads[i] - mn)];
    }
  }
  return true;
}

template <typename Count>
load_state::commit_pass load_state::run_commit_pass(const Count* row,
                                                    const std::vector<std::uint32_t>& carries,
                                                    weight_t weight_per_ball, bool release,
                                                    const range_executor& exec,
                                                    std::vector<range_commit>& ranges) {
  constexpr auto bin_cap = static_cast<weight_t>(std::numeric_limits<load_t>::max());
  constexpr weight_t carry = weight_t{std::numeric_limits<Count>::max()} + 1;
  const std::size_t n = loads_.size();
  NB_REQUIRE(exec.covers(n), "range executor must cover every bin");
  const weight_t w = weight_per_ball;
  const bool unit = w == 1;
  const auto carry_load = static_cast<std::uint32_t>(carry * w);
  load_t* loads = loads_.data();
  // The per-bin check of sweep(), on the loads before the pass.
  const auto fails = [&](std::size_t i, weight_t count) {
    return release ? count * w > loads[i] : static_cast<weight_t>(loads[i]) + count * w > bin_cap;
  };
  ranges.assign(exec.ranges(), range_commit{});
  levels_.begin_ranges(exec.ranges(), std::min(exec.chunk(), n));
  const step_count withheld = exec.run([&](std::size_t r) {
    const auto [lo, hi] = exec.bounds(r, n);
    range_commit& rc = ranges[r];
    rc.culprit = n;
    // Carries land first, so the sweep sees every bin's final load.
    bool failed = false;
    for (const std::uint32_t c : carries) {
      if (c < lo || c >= hi) continue;
      failed |= !unit && static_cast<weight_t>(loads[c]) + carry * w > bin_cap;
      loads[c] = static_cast<load_t>(static_cast<std::uint32_t>(loads[c]) + carry_load);
      rc.count += static_cast<step_count>(carry);
    }
    swept s{};
    if (release) {
      s = unit ? sweep_on_cpu<true, true>(loads, row, w, lo, hi)
               : sweep_on_cpu<true, false>(loads, row, w, lo, hi);
    } else {
      s = unit ? sweep_on_cpu<false, true>(loads, row, w, lo, hi)
               : sweep_on_cpu<false, false>(loads, row, w, lo, hi);
    }
    rc.count += s.count;
    if (failed || s.failed) {
      // Restore the range, then find its first culprit: by row entry
      // alone, then the carried bins before it by their full counts.
      unsweep(loads, row, w, release, lo, hi);
      for (const std::uint32_t c : carries) {
        if (c >= lo && c < hi) {
          loads[c] = static_cast<load_t>(static_cast<std::uint32_t>(loads[c]) - carry_load);
        }
      }
      std::size_t culprit = hi;
      for (std::size_t i = lo; i < hi; ++i) {
        if (fails(i, row[i])) {
          culprit = i;
          break;
        }
      }
      for (const std::uint32_t c : carries) {
        if (c >= lo && c < culprit && fails(c, full_count(row, carries, c))) culprit = c;
      }
      NB_ASSERT(culprit < hi);
      rc.culprit = culprit;
      return;
    }
    rc.mn = s.mn;
    rc.mx = s.mx;
    levels_.count_range(r, loads, lo, hi, s.mn, s.mx);
  });
  commit_pass pass;
  pass.withheld = withheld;
  pass.culprit = n;
  for (const range_commit& rc : ranges) {  // ranges in bin order: first culprit
    pass.total += rc.count;
    pass.culprit = std::min(pass.culprit, rc.culprit);
    pass.mn = rc.mn < pass.mn ? rc.mn : pass.mn;  // empty ranges keep the identities
    pass.mx = rc.mx > pass.mx ? rc.mx : pass.mx;
  }
  return pass;
}

template <typename Count>
void load_state::undo_commit_pass(const Count* row, const std::vector<std::uint32_t>& carries,
                                  weight_t weight_per_ball, bool release,
                                  const range_executor& exec,
                                  const std::vector<range_commit>& ranges) {
  constexpr weight_t carry = weight_t{std::numeric_limits<Count>::max()} + 1;
  const auto carry_load = static_cast<std::uint32_t>(carry * weight_per_ball);
  const std::size_t n = loads_.size();
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    if (ranges[r].culprit != n) continue;  // a failed range restored itself
    const auto [lo, hi] = exec.bounds(r, n);
    unsweep(loads_.data(), row, weight_per_ball, release, lo, hi);
    for (const std::uint32_t c : carries) {
      if (c >= lo && c < hi) {
        loads_[c] = static_cast<load_t>(static_cast<std::uint32_t>(loads_[c]) - carry_load);
      }
    }
  }
}

void load_state::apply_increments(const std::vector<std::uint32_t>& add,
                                  weight_t weight_per_ball, const range_executor& exec) {
  static const std::vector<std::uint32_t> no_carries;
  apply_counts(add, no_carries, weight_per_ball, exec);
}

void load_state::apply_increments(const std::vector<std::uint8_t>& low,
                                  const std::vector<std::uint32_t>& carries,
                                  weight_t weight_per_ball, const range_executor& exec) {
  apply_counts(low, carries, weight_per_ball, exec);
}

template <typename Count>
void load_state::apply_counts(const std::vector<Count>& low,
                              const std::vector<std::uint32_t>& carries, weight_t weight_per_ball,
                              const range_executor& exec) {
  NB_ASSERT(!bulk_);
  NB_REQUIRE(low.size() == loads_.size(), "increment vector must have one entry per bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  const std::size_t n = loads_.size();
  bool stray = false;
  for (const std::uint32_t c : carries) stray |= c >= n;
  NB_REQUIRE(!stray, "carry list names a bin out of range");
  constexpr weight_t carry = weight_t{std::numeric_limits<Count>::max()} + 1;
  const Count* row = low.data();
  // The one pass validates and adds together, so a refusal after it undoes
  // it first: strong exception safety, like allocate(i, w) -- a throw must
  // not leave a prefix of bins inflated while balls_/levels_ still reflect
  // the old state.
  std::vector<range_commit> ranges;
  const commit_pass pass = run_commit_pass(row, carries, weight_per_ball, false, exec, ranges);
  NB_ASSERT(pass.withheld == 0);
  const step_count total = pass.total;
  const std::size_t culprit = pass.culprit;
  const weight_t room = max_total_weight - total_weight();
  if (total > room / weight_per_ball || culprit != n) {
    undo_commit_pass(row, carries, weight_per_ball, false, exec, ranges);
  }
  // Same int64-overflow audit as the weighted allocate(), phrased as a
  // division so the bound itself cannot overflow (total * weight_per_ball
  // may exceed int64 at the ceilings' corner).
  NB_REQUIRE(total <= room / weight_per_ball,
             "window would overflow the total-weight accumulator (max_total_weight)");
  NB_REQUIRE(culprit == n, "window of " + std::to_string(full_count(row, carries, culprit)) +
                               " balls of weight " + std::to_string(weight_per_ball) +
                               " would overflow bin " + std::to_string(culprit) +
                               "'s 32-bit load (currently " + std::to_string(loads_[culprit]) +
                               ")");
  levels_ok_ = levels_.merge_ranges(loads_, pass.mn, pass.mx, exec);
  balls_ += total;
  extra_weight_ += total * (weight_per_ball - 1);
  NB_ASSERT(balls_ <= max_run_balls);
  if (lease_on_ && total > 0) {
    // A merged window has no per-ball arrival order; record residents in
    // bin-index order.  That order is a pure function of the merged
    // counts, so it is identical for every thread count / ISA backend of
    // the engine that produced the window (the windowed engines' own
    // determinism contract) -- it just differs from the serial per-ball
    // order, exactly as the window's sampling already does.
    std::vector<std::uint32_t> sorted = carries;
    std::sort(sorted.begin(), sorted.end());
    auto next = sorted.cbegin();
    for (std::size_t i = 0; i < n; ++i) {
      weight_t count = row[i];
      for (; next != sorted.cend() && *next == i; ++next) count += carry;
      for (weight_t k = 0; k < count; ++k) {
        lease_push(static_cast<bin_index>(i), weight_per_ball);
      }
    }
  }
}

void load_state::apply_releases(const std::vector<std::uint32_t>& rel,
                                weight_t weight_per_ball, step_count k,
                                const range_executor& exec) {
  NB_ASSERT(!bulk_);
  NB_REQUIRE(rel.size() == loads_.size(), "release vector must have one entry per bin");
  NB_REQUIRE(weight_per_ball >= 1 && weight_per_ball <= max_ball_weight,
             "per-ball weight must be in [1, max_ball_weight]");
  NB_REQUIRE(!lease_on_,
             "bulk releases cannot maintain the lease ring (the lease channel "
             "expires per-ball through release_oldest)");
  // Validated in the same pass that releases, and undone before any
  // refusal (strong exception safety, matching apply_increments), with
  // the same bin-and-weight error vocabulary as release(i, w).
  const std::size_t n = loads_.size();
  static const std::vector<std::uint32_t> no_carries;
  std::vector<range_commit> ranges;
  const commit_pass pass =
      run_commit_pass(rel.data(), no_carries, weight_per_ball, true, exec, ranges);
  const std::size_t i = pass.culprit;
  const step_count total = pass.total + pass.withheld;
  if (i != n || total != k || balls_ < k || extra_weight_ < k * (weight_per_ball - 1)) {
    undo_commit_pass(rel.data(), no_carries, weight_per_ball, true, exec, ranges);
  }
  NB_REQUIRE(i == n, "release of weight " +
                         std::to_string(static_cast<weight_t>(rel[i]) * weight_per_ball) +
                         " would underflow bin " + std::to_string(i) + " (currently " +
                         std::to_string(loads_[i]) + ")");
  NB_REQUIRE(total == k, "departure block counts do not sum to the block size");
  NB_REQUIRE(balls_ >= k, "release with no resident balls");
  NB_REQUIRE(extra_weight_ >= k * (weight_per_ball - 1),
             "departure block of weight " + std::to_string(weight_per_ball) +
                 " per ball exceeds the resident extra weight (" +
                 std::to_string(extra_weight_) + ")");
  levels_ok_ = levels_.merge_ranges(loads_, pass.mn, pass.mx, exec);
  balls_ -= pass.total;
  extra_weight_ -= pass.total * (weight_per_ball - 1);
}

void load_state::save(state_writer& w) const {
  NB_REQUIRE(!bulk_, "cannot checkpoint a load_state inside an open bulk window");
  w.put_vec(loads_);
  w.put_i64(balls_);
  w.put_i64(extra_weight_);
  w.put_bool(lease_on_);
  if (lease_on_) {
    // Linearized FIFO order; the head/capacity split is storage detail.
    std::vector<std::uint64_t> entries(lease_count_);
    for (std::size_t k = 0; k < lease_count_; ++k) {
      entries[k] = lease_slots_[(lease_head_ + k) % lease_slots_.size()];
    }
    w.put_vec(entries);
  }
}

void load_state::restore(state_reader& r) {
  auto loads = r.get_vec<load_t>();
  const std::int64_t balls = r.get_i64();
  const std::int64_t extra = r.get_i64();
  NB_REQUIRE(loads.size() == loads_.size(), "checkpoint bin count does not match this run");
  NB_REQUIRE(balls >= 0 && balls <= max_run_balls, "checkpoint ball count out of range");
  NB_REQUIRE(extra >= 0, "checkpoint extra weight must be non-negative");
  weight_t total = 0;
  for (const load_t x : loads) {
    NB_REQUIRE(x >= 0, "checkpoint loads must be non-negative");
    total += x;
  }
  NB_REQUIRE(total == balls + extra, "checkpoint loads do not sum to the recorded total weight");
  const bool lease_on = r.get_bool();
  std::vector<std::uint64_t> entries;
  if (lease_on) {
    entries = r.get_vec<std::uint64_t>();
    // Under lease tracking every resident ball has exactly one ring entry,
    // and the recorded (bin, weight) pairs must reproduce the loads
    // exactly -- per bin, not just in total.
    NB_REQUIRE(static_cast<std::int64_t>(entries.size()) == balls,
               "checkpoint lease ring does not hold one entry per resident ball");
    std::vector<weight_t> per_bin(loads.size(), 0);
    for (const std::uint64_t slot : entries) {
      const auto bin = static_cast<std::size_t>(slot & 0xFFFFFFFFu);
      const auto weight = static_cast<weight_t>(slot >> 32);
      NB_REQUIRE(bin < loads.size(), "checkpoint lease entry names a bin out of range");
      NB_REQUIRE(weight >= 1 && weight <= max_ball_weight,
                 "checkpoint lease entry weight out of range");
      per_bin[bin] += weight;
    }
    for (std::size_t i = 0; i < loads.size(); ++i) {
      NB_REQUIRE(per_bin[i] == static_cast<weight_t>(loads[i]),
                 "checkpoint lease ring does not reproduce the loads");
    }
  }
  loads_ = std::move(loads);
  balls_ = balls;
  extra_weight_ = extra;
  bulk_ = false;
  levels_ok_ = levels_.rebuild(loads_);
  lease_on_ = lease_on;
  lease_slots_ = std::move(entries);
  lease_head_ = 0;
  lease_count_ = lease_slots_.size();
}

std::vector<double> load_state::normalized() const {
  const double avg = average_load();
  std::vector<double> y(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    y[i] = static_cast<double>(loads_[i]) - avg;
  }
  return y;
}

std::vector<double> load_state::sorted_normalized_desc() const {
  const double avg = average_load();
  std::vector<double> y;
  y.reserve(loads_.size());
  if (levels_ok_) {
    levels_.for_each_level_desc([&](load_t level, bin_count count) {
      y.insert(y.end(), count, static_cast<double>(level) - avg);
    });
  } else {
    // Wide-span weighted regime: the dense level index gave up; one
    // explicit sort keeps the query exact.
    for (const load_t x : loads_) y.push_back(static_cast<double>(x) - avg);
    std::sort(y.begin(), y.end(), std::greater<>());
  }
  return y;
}

bin_count load_state::overloaded_count() const noexcept {
  // x >= avg over integer loads is exactly x >= ceil(avg): count levels in
  // the index instead of scanning all n bins.
  const auto threshold = static_cast<load_t>(std::ceil(average_load()));
  if (levels_ok_) return levels_.count_at_or_above(threshold);
  bin_count over = 0;
  for (const load_t x : loads_) over += x >= threshold ? 1 : 0;
  return over;
}

}  // namespace nb
