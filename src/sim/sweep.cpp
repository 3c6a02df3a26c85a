#include "sim/sweep.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace nb {

namespace {
/// Compact parameter rendering for sweep-point labels: integral values
/// print without a decimal point ("8"), everything else as %g ("0.5").
std::string param_label(double p) {
  char buf[32];
  if (p == std::floor(p) && std::abs(p) < 1e15) {
    std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(p));
  } else {
    std::snprintf(buf, sizeof buf, "%g", p);
  }
  return buf;
}
}  // namespace

std::vector<std::int64_t> arithmetic_range(std::int64_t lo, std::int64_t hi, std::int64_t step) {
  NB_REQUIRE(step >= 1, "step must be positive");
  NB_REQUIRE(lo <= hi, "range must be non-empty");
  std::vector<std::int64_t> out;
  for (std::int64_t v = lo; v <= hi; v += step) out.push_back(v);
  return out;
}

step_count checkpoint_chunk(step_count balls_so_far, step_count remaining, step_count interval) {
  NB_REQUIRE(balls_so_far >= 0 && remaining >= 0, "ball counts must be non-negative");
  NB_REQUIRE(interval >= 1, "checkpoint interval must be positive");
  const step_count to_next = interval - balls_so_far % interval;
  return to_next < remaining ? to_next : remaining;
}

std::vector<std::int64_t> one_five_decades(std::int64_t lo, std::int64_t hi) {
  NB_REQUIRE(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
  std::vector<std::int64_t> out;
  std::int64_t decade = 1;
  while (decade <= hi) {
    for (std::int64_t mant : {std::int64_t{1}, std::int64_t{5}}) {
      const std::int64_t v = mant * decade;
      if (v >= lo && v <= hi) out.push_back(v);
    }
    decade *= 10;
  }
  return out;
}

std::vector<sweep_point> expand_grid(const sweep_grid& grid) {
  NB_REQUIRE(!grid.kinds.empty(), "sweep grid needs at least one process kind");
  NB_REQUIRE(!grid.bins.empty(), "sweep grid needs at least one bin count");
  NB_REQUIRE(!grid.params.empty(), "sweep grid needs at least one parameter value");
  NB_REQUIRE(!grid.weightings.empty(), "sweep grid needs at least one weighting spec");
  NB_REQUIRE(!grid.samplers.empty(), "sweep grid needs at least one sampler spec");
  NB_REQUIRE(!grid.departures.empty(), "sweep grid needs at least one departure spec");
  NB_REQUIRE(grid.m_override >= 0, "m_override must be non-negative");
  NB_REQUIRE(grid.m_override > 0 || grid.m_multiplier >= 1,
             "need m_override > 0 or m_multiplier >= 1");
  std::vector<sweep_point> out;
  out.reserve(grid.bins.size() * grid.kinds.size() * grid.params.size() *
              grid.weightings.size() * grid.samplers.size() * grid.departures.size());
  for (const bin_count n : grid.bins) {
    NB_REQUIRE(n >= 1, "sweep grid bin counts must be positive");
    const step_count m =
        grid.m_override > 0 ? grid.m_override : grid.m_multiplier * static_cast<step_count>(n);
    for (const auto& kind : grid.kinds) {
      for (const double p : grid.params) {
        for (const auto& weighting : grid.weightings) {
          for (const auto& sampler : grid.samplers) {
            for (const auto& departure : grid.departures) {
              sweep_point point;
              point.process = process_spec{kind, n, p, weighting, sampler, departure};
              point.m = m;
              point.label = kind + "/" + param_label(p) + "@n=" + std::to_string(n);
              // Model axes only mark non-default legs, keeping historical
              // labels (and everything keyed on them) byte-identical.
              if (weighting != "unit") point.label += "|w=" + weighting;
              if (sampler != "uniform") point.label += "|s=" + sampler;
              if (departure != "none") point.label += "|d=" + departure;
              out.push_back(std::move(point));
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace nb
