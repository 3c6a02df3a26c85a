// The generalized allocation model: *what* a ball deposits and *where* the
// samples come from.
//
// The paper's processes hardwire two assumptions: every ball has weight 1,
// and every sampled bin is uniform over [n].  Both generalize (weighted
// balls / heavy-tailed job sizes; biased sampling / heterogeneous-capacity
// bins), and the batched/noisy two-choice analysis extends naturally, so
// the library carries the pair as an explicit value:
//
//   * ball_weighting -- the per-ball weight law: unit (the paper's model),
//     fixed integer weight, or RNG-driven draws (two-point, truncated
//     discrete Pareto).  Unit and fixed draws consume NO randomness, so
//     the unit configuration is bit-identical to the historical code.
//   * bin_sampler    -- the per-sample bin law: uniform (Lemire fast path,
//     bit-identical to nb::bounded) or an alias table over an arbitrary
//     probability vector (Vose's method, two u64 draws per sample).
//
// Steady-state churn (PR 9) adds the third leg:
//
//   * departure_model -- *how* resident balls leave: none (the paper's
//     insertion-only model), random (a uniformly random resident load
//     unit departs), lease (FIFO expiry -- the oldest resident ball
//     departs whole, via the load_state's lease ring), or drain
//     (two-choice in reverse: a unit leaves the fuller of two sampled
//     bins).  The "none" configuration draws no randomness and keeps
//     every historical label and stream byte-identical.
//
// An alloc_model bundles one of each; every process carries one
// (defaulting to unit/uniform/none) and threads it through step/step_many,
// the frozen-window engines and the churn driver.  All three laws are part
// of the *sampling contract*: results are a pure function of (config,
// model, seed), never of thread counts or ISA backends.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "rng/rng.hpp"

namespace nb {

// ---------------------------------------------------------------------------
// Ball weighting.

class ball_weighting {
 public:
  enum class kind : std::uint8_t {
    unit,       ///< weight 1, no randomness (the paper's model)
    fixed,      ///< constant integer weight, no randomness
    two_point,  ///< lo w.p. 1-p, hi w.p. p (one canonical draw per ball)
    pareto,     ///< truncated discrete Pareto(alpha) >= 1 (one draw per ball)
  };

  /// The default: every ball deposits exactly 1.
  ball_weighting() = default;

  [[nodiscard]] static ball_weighting unit() { return {}; }

  /// Every ball deposits exactly `w` (job batches, fixed-size shards).
  [[nodiscard]] static ball_weighting fixed(weight_t w);

  /// Bimodal job sizes: `lo` with probability 1 - p_hi, `hi` with p_hi.
  [[nodiscard]] static ball_weighting two_point(weight_t lo, weight_t hi, double p_hi);

  /// Heavy-tailed job sizes: W = min(cap, floor((1-U)^(-1/alpha))) >= 1,
  /// the discrete truncated Pareto with tail index `alpha` (smaller alpha
  /// = heavier tail).  `cap` keeps single draws below max_ball_weight.
  [[nodiscard]] static ball_weighting pareto(double alpha, weight_t cap);

  [[nodiscard]] kind weighting_kind() const noexcept { return kind_; }
  /// True for the paper's unit model -- the bit-parity fast path.
  [[nodiscard]] bool is_unit() const noexcept { return kind_ == kind::unit; }
  /// True when draw() consumes randomness (two-point / pareto).  Random
  /// weights cannot ride the count-merging frozen-window engines: a merged
  /// per-bin *count* row cannot reconstruct which draw went where.
  [[nodiscard]] bool is_random() const noexcept {
    return kind_ == kind::two_point || kind_ == kind::pareto;
  }

  /// The constant weight of a non-random law (unit -> 1, fixed -> w).
  [[nodiscard]] weight_t fixed_weight() const {
    NB_REQUIRE(!is_random(), "fixed_weight() needs a deterministic weighting");
    return a_;
  }

  /// Upper bound on any single draw (overflow planning; <= max_ball_weight).
  [[nodiscard]] weight_t max_weight() const noexcept {
    switch (kind_) {
      case kind::unit:
      case kind::fixed:
        return a_;
      case kind::two_point:
        return a_ > b_ ? a_ : b_;
      case kind::pareto:
        return b_;  // the truncation cap
    }
    return a_;
  }

  /// One ball's weight.  Unit/fixed consume no generator output; two-point
  /// and pareto consume exactly one u64 (via canonical) per call.
  template <uniform_random_u64 G>
  [[nodiscard]] weight_t draw(G& rng) const {
    switch (kind_) {
      case kind::unit:
      case kind::fixed:
        return a_;
      case kind::two_point:
        return canonical(rng) < p_ ? b_ : a_;
      case kind::pareto: {
        // Inverse-CDF of the continuous Pareto, floored onto {1, 2, ...}
        // and truncated at the cap.  1 - canonical() is in (0, 1], so the
        // pow argument never hits 0.
        const double u = 1.0 - canonical(rng);
        const double w = std::floor(std::pow(u, -1.0 / p_));
        if (w >= static_cast<double>(b_)) return b_;
        return w < 1.0 ? weight_t{1} : static_cast<weight_t>(w);
      }
    }
    return a_;
  }

  /// Stable human/CLI-facing name: "unit", "fixed[w=8]",
  /// "two-point[1,64,p=0.1]", "pareto[a=1.5,cap=4096]".
  [[nodiscard]] std::string label() const;

  friend bool operator==(const ball_weighting&, const ball_weighting&) = default;

 private:
  kind kind_ = kind::unit;
  weight_t a_ = 1;  ///< unit/fixed weight, two-point lo
  weight_t b_ = 1;  ///< two-point hi, pareto cap
  double p_ = 0.0;  ///< two-point p_hi, pareto alpha
};

// ---------------------------------------------------------------------------
// Alias-table sampling (Vose's method).

/// O(1)-per-draw sampler for an arbitrary probability vector over [n):
/// slot = uniform index, then keep the slot iff one raw u64 falls below
/// its 64-bit fixed-point acceptance threshold, else take its alias.  Draw
/// order per sample -- Lemire-bounded slot (>= 1 u64), then exactly one
/// threshold u64 -- is part of the sampling contract and shared verbatim
/// by the serial path, the shard engine and the kernel's alias lane path.
class alias_table {
 public:
  alias_table() = default;

  /// Builds from non-negative (unnormalized) weights; at least one must be
  /// positive.  Construction is deterministic: the same vector always
  /// yields the same table, on every platform.
  explicit alias_table(const std::vector<double>& weights);

  [[nodiscard]] bin_count size() const noexcept { return static_cast<bin_count>(n_); }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// 64-bit fixed-point keep-thresholds, one per slot (kernel gathers).
  [[nodiscard]] const std::uint64_t* thresholds() const noexcept { return thresh_.data(); }
  /// Alias bin per slot (kernel gathers).
  [[nodiscard]] const bin_index* aliases() const noexcept { return alias_.data(); }

  /// The probability vector the table realizes (exactly: slot and alias
  /// contributions folded back together) -- for tests and diagnostics.
  [[nodiscard]] std::vector<double> probabilities() const;

  template <uniform_random_u64 G>
  [[nodiscard]] bin_index sample(G& rng) const {
    NB_ASSERT(n_ >= 1);
    const auto slot = static_cast<bin_index>(bounded(rng, n_));
    const std::uint64_t u = rng.next();
    return u < thresh_[slot] ? slot : alias_[slot];
  }

 private:
  std::vector<std::uint64_t> thresh_;
  std::vector<bin_index> alias_;
  std::uint64_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Bin sampler.

class bin_sampler {
 public:
  /// The default: uniform over [n) (the paper's model, Lemire fast path).
  bin_sampler() = default;

  [[nodiscard]] static bin_sampler uniform() { return {}; }

  /// Samples bin i with probability weights[i] / sum(weights).  `label`
  /// names the family for journals/bench legs (e.g. "zipf:1"); it defaults
  /// to "alias".
  [[nodiscard]] static bin_sampler alias(const std::vector<double>& weights,
                                         std::string label = "alias");

  [[nodiscard]] bool is_uniform() const noexcept { return table_.empty(); }
  /// Bin count a non-uniform sampler is bound to (0 = uniform, any n).
  [[nodiscard]] bin_count bins() const noexcept { return table_.size(); }
  [[nodiscard]] const alias_table& table() const noexcept { return table_; }

  /// One bin sample.  Uniform consumes generator output exactly like
  /// nb::bounded(rng, n) -- the historical stream, bit for bit.
  template <uniform_random_u64 G>
  [[nodiscard]] bin_index sample(G& rng, bin_count n) const {
    if (is_uniform()) return static_cast<bin_index>(bounded(rng, n));
    NB_ASSERT(table_.size() == n);
    return table_.sample(rng);
  }

  /// "uniform" or the alias family label ("zipf:1", "hot:10,0.5", ...).
  [[nodiscard]] std::string label() const { return is_uniform() ? "uniform" : label_; }

 private:
  alias_table table_;
  std::string label_;
};

// ---------------------------------------------------------------------------
// Departure model (steady-state churn).

/// *How* resident balls leave the system.  Pure policy, no mutable state:
/// the lease channel's FIFO residency record lives in load_state (enabled
/// by install_model when this channel is selected), mirroring how the
/// samplers' tables are configuration while the loads are state.
class departure_model {
 public:
  enum class kind : std::uint8_t {
    none,    ///< insertion-only (the paper's model); no churn surface
    random,  ///< a uniformly random resident load unit departs
    lease,   ///< FIFO lease expiry: the oldest resident ball departs whole
    drain,   ///< two-choice drain: a unit leaves the fuller of two samples
  };

  /// The default: nothing ever departs.
  departure_model() = default;

  [[nodiscard]] static departure_model none() { return {}; }
  [[nodiscard]] static departure_model random();
  [[nodiscard]] static departure_model lease();
  [[nodiscard]] static departure_model drain();

  [[nodiscard]] kind departure_kind() const noexcept { return kind_; }
  /// True for the paper's insertion-only model -- the bit-parity fast path.
  [[nodiscard]] bool is_none() const noexcept { return kind_ == kind::none; }
  /// True when the channel needs the load_state's FIFO lease ring.
  [[nodiscard]] bool is_lease() const noexcept { return kind_ == kind::lease; }

  /// Stable human/CLI-facing name: "none" | "random" | "lease" | "drain".
  [[nodiscard]] std::string label() const;

  friend bool operator==(const departure_model&, const departure_model&) = default;

 private:
  kind kind_ = kind::none;
};

// ---------------------------------------------------------------------------
// The bundled model.

struct alloc_model {
  ball_weighting weighting{};
  bin_sampler sampler{};
  departure_model departures{};

  /// True for the paper's unit-weight/uniform-sampling/insertion-only
  /// configuration -- the path every historical golden/parity test pins
  /// down.
  [[nodiscard]] bool is_default() const noexcept {
    return weighting.is_unit() && sampler.is_uniform() && departures.is_none();
  }

  /// "unit/uniform", "pareto[a=1.5,cap=4096]/zipf:1", with "/<departures>"
  /// appended only when a churn channel is configured, so insertion-only
  /// labels stay byte-identical to the pre-churn ones.
  [[nodiscard]] std::string label() const {
    std::string out = weighting.label() + "/" + sampler.label();
    if (!departures.is_none()) {
      out += '/';
      out += departures.label();
    }
    return out;
  }
};

/// Validates `model` against a process over n bins: a non-uniform sampler
/// must be built for exactly n bins.  Every set_model goes through this.
void check_model(const alloc_model& model, bin_count n);

/// The house process-name convention under the generalized model: the
/// historical name stays byte-identical for the default model, non-default
/// models append "|<weighting>/<sampler>".  Every process's name() uses
/// this so the suffix format cannot drift between classes.
[[nodiscard]] inline std::string with_model_suffix(std::string base, const alloc_model& model) {
  if (model.is_default()) return base;
  return base + "|" + model.label();
}

// ---------------------------------------------------------------------------
// Named spec parsing (CLI / sweep / campaign surface).

/// Parses a weighting spec:
///   "unit" | "fixed:<w>" | "two-point:<lo>,<hi>,<p>" |
///   "pareto:<alpha>" | "pareto:<alpha>,<cap>"  (default cap 2^20).
/// Throws contract_error on anything else.
[[nodiscard]] ball_weighting make_weighting(const std::string& spec);

/// Parses a sampler spec for n bins:
///   "uniform"            -- the paper's model,
///   "zipf:<s>"           -- p_i proportional to (i+1)^-s (heterogeneous
///                           capacities with a power-law profile),
///   "hot:<k>,<f>"        -- k hot bins share probability f, the rest
///                           split 1-f evenly (hotspot skew).
/// Throws contract_error on anything else.
[[nodiscard]] bin_sampler make_sampler(const std::string& spec, bin_count n);

/// Parses a departure spec: "none" | "random" | "lease" | "drain".
/// Throws contract_error on anything else.
[[nodiscard]] departure_model make_departures(const std::string& spec);

/// Bundles the parsers; "unit" + "uniform" (+ "none") yields the default
/// model.
[[nodiscard]] alloc_model make_model(const std::string& weighting_spec,
                                     const std::string& sampler_spec, bin_count n,
                                     const std::string& departures_spec = "none");

}  // namespace nb
