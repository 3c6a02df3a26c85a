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

/// Exact minimum and maximum of a non-empty load vector.
std::pair<load_t, load_t> load_range(const std::vector<load_t>& loads) {
  NB_ASSERT(!loads.empty());
  load_t mn = loads.front();
  load_t mx = loads.front();
  for (const load_t x : loads) {
    if (x < mn) mn = x;
    if (x > mx) mx = x;
  }
  return {mn, mx};
}

// The snapshot encoder and the commit's add pass each have a second build
// compiled for AVX2, picked at run time when the CPU has it.  The
// portable x86 baseline is SSE2, which narrows 32-bit loads to bytes
// through pack sequences and has no 32-bit min/max, so both loops are
// instruction-bound there at n = 10^6 (on a 4-core AVX-512 Xeon VM the
// AVX2 builds measured ~30% and ~20% faster).  Same loop, same results:
// execution-only.
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

/// One range of the commit's add pass: its new loads' min and max and the
/// sum of its deltas.
struct added_range {
  load_t mn = std::numeric_limits<load_t>::max();  // identities for an empty range
  load_t mx = std::numeric_limits<load_t>::min();
  weight_t net = 0;
};

/// loads[i] += delta(i) for i in [lo, hi).
template <typename Delta>
[[gnu::always_inline]] inline added_range add_range(load_t* loads, const Delta& delta,
                                                    std::size_t lo, std::size_t hi) {
  load_t mn = std::numeric_limits<load_t>::max();
  load_t mx = std::numeric_limits<load_t>::min();
  weight_t net = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const load_t d = delta(i);
    const load_t x = loads[i] + d;
    loads[i] = x;
    mn = x < mn ? x : mn;
    mx = x > mx ? x : mx;
    net += d;
  }
  return {mn, mx, net};
}

template <typename Delta>
NB_TGT_AVX2 added_range add_range_avx2(load_t* loads, const Delta& delta, std::size_t lo,
                                       std::size_t hi) {
  return add_range(loads, delta, lo, hi);
}

}  // namespace

bool compact_snapshot::assign(const std::vector<load_t>& loads) {
  const auto [mn, mx] = load_range(loads);
  return assign(loads, mn, mx, 0);
}

bool compact_snapshot::assign(const load_state& state) {
  return assign(state.loads(), state.min_load(), state.max_load(), 0);
}

bool compact_snapshot::assign_inverted(const std::vector<load_t>& loads) {
  const auto [mn, mx] = load_range(loads);
  return assign(loads, mn, mx, 0xFF);
}

bool compact_snapshot::assign_inverted(const load_state& state) {
  return assign(state.loads(), state.min_load(), state.max_load(), 0xFF);
}

bool compact_snapshot::assign(const std::vector<load_t>& loads, load_t mn, load_t mx,
                              std::uint8_t mask) {
  NB_ASSERT(!loads.empty() && mn <= mx);
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
  if (use_avx2()) {
    encode_offsets_avx2(src, dst, n, mn, mask);
  } else {
    encode_offsets(src, dst, n, mn, mask);
  }
  std::fill_n(dst + n, tail_padding, std::uint8_t{0});
  return true;
}

bool level_index::rebuild(const std::vector<load_t>& loads, load_t mn, load_t mx,
                          const range_executor& exec) {
  NB_ASSERT(mn <= mx);
  if (mx - mn > max_dense_span) return false;
  base_ = mn;
  min_ = mn;
  max_ = mx;
  const std::size_t n = loads.size();
  n_ = static_cast<bin_count>(n);
  const auto levels = static_cast<std::size_t>(mx - mn) + 1;
  counts_.assign(levels, 0);
  // Ranges count into their own histograms, unless those would outweigh
  // the bins (a wide but still dense span): then one range, on the
  // calling thread.  Within a range, bin i counts into sub-histogram
  // i % ways: consecutive bins at one level (the common case -- spans are
  // tiny) then increment `ways` different counters instead of queueing on
  // one counter's store-to-load forwarding.  Same fallback rule for them.
  const std::size_t ranges = levels * exec.ranges() > n ? 1 : exec.ranges();
  const std::size_t ways = levels * ranges * count_ways <= n ? count_ways : 1;
  if (ranges * ways == 1) {
    for (const load_t x : loads) ++counts_[static_cast<std::size_t>(x - mn)];
    return true;
  }
  // Histograms a cache line apart (plus a line of slack) so neighbouring
  // ranges never count into a shared line.
  constexpr std::size_t line = 64 / sizeof(bin_count);
  const std::size_t stride = (levels + 2 * line - 1) / line * line;
  scratch_.assign(ranges * ways * stride, 0);
  const load_t* x = loads.data();
  const auto count = [&](std::size_t r) {
    std::size_t lo = 0;
    std::size_t hi = n;
    if (ranges > 1) std::tie(lo, hi) = exec.bounds(r, n);
    bin_count* h = scratch_.data() + r * ways * stride;
    std::size_t i = lo;
    if (ways == count_ways) {
      for (; i + count_ways <= hi; i += count_ways) {
        for (std::size_t k = 0; k < count_ways; ++k) {
          ++h[k * stride + static_cast<std::size_t>(x[i + k] - mn)];
        }
      }
    }
    for (; i < hi; ++i) ++h[static_cast<std::size_t>(x[i] - mn)];
  };
  if (ranges == 1) {
    count(0);
  } else {
    exec.run(count);
  }
  for (std::size_t h = 0; h < ranges * ways; ++h) {
    const bin_count* sub = scratch_.data() + h * stride;
    for (std::size_t l = 0; l < levels; ++l) counts_[l] += sub[l];
  }
  return true;
}

template <typename Delta>
weight_t load_state::add_and_reindex(const Delta& delta, const range_executor& exec) {
  const std::size_t n = loads_.size();
  std::vector<added_range> range(exec.ranges());
  exec.run([&](std::size_t r) {
    const auto [lo, hi] = exec.bounds(r, n);
    range[r] = use_avx2() ? add_range_avx2(loads_.data(), delta, lo, hi)
                          : add_range(loads_.data(), delta, lo, hi);
  });
  added_range all;
  for (const added_range& part : range) {  // empty ranges keep the identities
    all.mn = part.mn < all.mn ? part.mn : all.mn;
    all.mx = part.mx > all.mx ? part.mx : all.mx;
    all.net += part.net;
  }
  levels_ok_ = levels_.rebuild(loads_, all.mn, all.mx, exec);
  return all.net;
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
  // A carry stands for one wrap of its bin's low count.
  constexpr weight_t low_cap = std::numeric_limits<Count>::max();
  constexpr weight_t carry = low_cap + 1;
  const weight_t carried = carry * static_cast<weight_t>(carries.size());
  const Count* row = low.data();
  // Carries in bin order, for the fixed-weight bin check and the lease
  // record; bin i's count is row[i] plus one carry per entry equal to i.
  std::vector<std::uint32_t> sorted;
  if (!carries.empty() && (weight_per_ball != 1 || lease_on_)) {
    sorted = carries;
    std::sort(sorted.begin(), sorted.end());
  }
  const auto count_of = [&](std::size_t i) {
    return static_cast<weight_t>(row[i]) +
           carry * static_cast<weight_t>(std::count(carries.begin(), carries.end(), i));
  };
  // Unit weights validate only the total-weight ceiling.  While no n low
  // counts plus the carries could reach it, the validation pass is skipped
  // and the add pass sums the window instead: one sweep of `low` less.
  const weight_t room = max_total_weight - total_weight();
  const bool sum_in_add_pass = weight_per_ball == 1 && carried <= room &&
                               static_cast<weight_t>(n) <= (room - carried) / low_cap;
  step_count total = carried;
  if (!sum_in_add_pass) {
    // Sum, and under fixed weights validate every bin, BEFORE mutating any
    // (strong exception safety, like allocate(i, w)): a throw must not
    // leave a prefix of bins inflated while balls_/levels_ still reflect
    // the old state.  Each range records its total and its first culprit
    // bin by its low count alone (n = none); the sweep is branch-free and
    // only a failing range re-walks.  Bins with carries are then checked
    // with their full counts.
    constexpr auto bin_cap = static_cast<weight_t>(std::numeric_limits<load_t>::max());
    const auto over = [&](std::size_t i, weight_t count) {
      return static_cast<weight_t>(loads_[i]) + count * weight_per_ball > bin_cap;
    };
    std::vector<step_count> totals(exec.ranges(), 0);
    std::vector<std::size_t> culprits(exec.ranges(), n);
    exec.run([&](std::size_t r) {
      const auto [lo, hi] = exec.bounds(r, n);
      step_count range_total = 0;
      for (std::size_t i = lo; i < hi; ++i) range_total += row[i];
      totals[r] = range_total;
      if (weight_per_ball == 1) return;
      bool any = false;
      for (std::size_t i = lo; i < hi; ++i) any |= over(i, row[i]);
      for (std::size_t i = lo; any && i < hi; ++i) {
        if (over(i, row[i])) {
          culprits[r] = i;
          break;
        }
      }
    });
    for (const step_count t : totals) total += t;
    // Same int64-overflow audit as the weighted allocate(), phrased as a
    // division so the bound itself cannot overflow (total * weight_per_ball
    // may exceed int64 at the ceilings' corner).
    NB_REQUIRE(total <= room / weight_per_ball,
               "window would overflow the total-weight accumulator (max_total_weight)");
    // Ranges run in bin order, so the first culprit is the smallest.
    std::size_t culprit = *std::min_element(culprits.begin(), culprits.end());
    if (weight_per_ball != 1) {
      for (auto it = sorted.begin(); it != sorted.end() && *it < culprit;) {
        const auto run_end = std::upper_bound(it, sorted.end(), *it);
        if (over(*it, row[*it] + carry * (run_end - it))) culprit = *it;
        it = run_end;
      }
    }
    NB_REQUIRE(culprit == n, "window of " + std::to_string(count_of(culprit)) +
                                 " balls of weight " + std::to_string(weight_per_ball) +
                                 " would overflow bin " + std::to_string(culprit) +
                                 "'s 32-bit load (currently " +
                                 std::to_string(loads_[culprit]) + ")");
  }
  if (!carries.empty()) {
    const auto carry_load = static_cast<load_t>(carry * weight_per_ball);
    for (const std::uint32_t c : carries) loads_[c] += carry_load;
  }
  // The add pass sees every bin's final load, carries included, so its
  // range tracking stays exact.
  if (weight_per_ball == 1) {
    const weight_t net =
        add_and_reindex([row](std::size_t i) { return static_cast<load_t>(row[i]); }, exec);
    if (sum_in_add_pass) total += net;
  } else {
    add_and_reindex(
        [row, weight_per_ball](std::size_t i) {
          return static_cast<load_t>(static_cast<weight_t>(row[i]) * weight_per_ball);
        },
        exec);
  }
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
  // Validate every bin and the totals BEFORE mutating any (strong
  // exception safety, matching apply_increments), with the
  // same bin-and-weight error vocabulary as release(i, w).  Each range
  // records its total and its first culprit bin (n = none); the sweep is
  // branch-free and only a failing range re-walks.
  const std::size_t n = loads_.size();
  std::vector<step_count> totals(exec.ranges(), 0);
  std::vector<std::size_t> culprits(exec.ranges(), n);
  exec.run([&](std::size_t r) {
    const auto [lo, hi] = exec.bounds(r, n);
    step_count total = 0;
    bool underflow = false;
    for (std::size_t i = lo; i < hi; ++i) {
      underflow |= static_cast<weight_t>(rel[i]) * weight_per_ball > loads_[i];
      total += rel[i];
    }
    totals[r] = total;
    for (std::size_t i = lo; underflow && i < hi; ++i) {
      if (static_cast<weight_t>(rel[i]) * weight_per_ball > loads_[i]) {
        culprits[r] = i;
        break;
      }
    }
  });
  for (const std::size_t i : culprits) {  // ranges in bin order: first culprit
    NB_REQUIRE(i == n, "release of weight " +
                           std::to_string(static_cast<weight_t>(rel[i]) * weight_per_ball) +
                           " would underflow bin " + std::to_string(i) + " (currently " +
                           std::to_string(loads_[i]) + ")");
  }
  step_count total = 0;
  for (const step_count t : totals) total += t;
  NB_REQUIRE(total == k, "departure block counts do not sum to the block size");
  NB_REQUIRE(balls_ >= k, "release with no resident balls");
  NB_REQUIRE(extra_weight_ >= k * (weight_per_ball - 1),
             "departure block of weight " + std::to_string(weight_per_ball) +
                 " per ball exceeds the resident extra weight (" +
                 std::to_string(extra_weight_) + ")");
  add_and_reindex(
      [&](std::size_t i) {
        return -static_cast<load_t>(static_cast<weight_t>(rel[i]) * weight_per_ball);
      },
      exec);
  balls_ -= k;
  extra_weight_ -= k * (weight_per_ball - 1);
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
