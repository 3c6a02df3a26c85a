// noisy_campaign: the paper's own workload -- one run_campaign over the
// Table 12.3 grid.
//
// Kinds g-bounded, g-myopic and sigma-noisy-load at g / sigma in
// {0, 1, 2, 4, 8, 16} (0 is two-choice, as in Table 12.3), n in
// {10^4, 10^5}, m = 1000 n per cell, one repetition, on the serial fused
// loop with one scheduler worker per core.  All the work sits in
// per-ball rng draws, the core/noise decide rules, load_state deposits with
// the level index, and the exp scheduler; the kernel, snapshots, shards and
// departures are bypassed.
//
// Untraced, whole campaigns run while the next fits the time budget;
// events_per_s is their balls over their wall time, an event being one ball.
// Traced, each cell's factory returns a forwarding process that records the
// cell's span; its results must equal the untraced campaign's cell for cell.
// Isolated per-ball costs of the decide rules, the bounded draw and the
// deposit complete the per-layer picture.
#include <cmath>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "common.hpp"

namespace perfbench {
namespace {

/// Costliest per ball first (then larger n first, see sizes): the
/// scheduler deals cells round-robin and steals from the back, so the
/// small cells fill the tail.
const std::vector<std::string> kProcesses = {"sigma-noisy-load", "g-bounded", "g-myopic"};
const std::vector<int> kParams = {0, 1, 2, 4, 8, 16};

/// Table 12.3 of the paper at the two bin counts this workload runs:
/// (process, g or sigma, n) -> published gap distribution as (gap,
/// percent of runs) pairs.
using distribution = std::vector<std::pair<int, int>>;
const std::map<std::tuple<std::string, int, std::int64_t>, distribution>& table_12_3() {
  static const std::map<std::tuple<std::string, int, std::int64_t>, distribution> table = {
      {{"g-bounded", 0, 10000}, {{2, 46}, {3, 54}}},
      {{"g-bounded", 1, 10000}, {{4, 74}, {5, 26}}},
      {{"g-bounded", 2, 10000}, {{5, 1}, {6, 89}, {7, 10}}},
      {{"g-bounded", 4, 10000}, {{8, 1}, {9, 82}, {10, 17}}},
      {{"g-bounded", 8, 10000}, {{13, 1}, {14, 35}, {15, 51}, {16, 11}, {17, 2}}},
      {{"g-bounded", 16, 10000}, {{23, 4}, {24, 37}, {25, 43}, {26, 11}, {27, 5}}},
      {{"g-bounded", 0, 100000}, {{3, 100}}},
      {{"g-bounded", 1, 100000}, {{4, 1}, {5, 99}}},
      {{"g-bounded", 2, 100000}, {{6, 50}, {7, 50}}},
      {{"g-bounded", 4, 100000}, {{9, 32}, {10, 67}, {11, 1}}},
      {{"g-bounded", 8, 100000}, {{15, 39}, {16, 57}, {17, 4}}},
      {{"g-bounded", 16, 100000}, {{25, 9}, {26, 50}, {27, 33}, {28, 7}, {29, 1}}},
      {{"g-myopic", 0, 10000}, {{2, 46}, {3, 54}}},
      {{"g-myopic", 1, 10000}, {{4, 97}, {5, 3}}},
      {{"g-myopic", 2, 10000}, {{5, 49}, {6, 51}}},
      {{"g-myopic", 4, 10000}, {{7, 2}, {8, 87}, {9, 11}}},
      {{"g-myopic", 8, 10000}, {{12, 37}, {13, 50}, {14, 12}, {15, 1}}},
      {{"g-myopic", 16, 10000}, {{20, 14}, {21, 47}, {22, 29}, {23, 8}, {25, 2}}},
      {{"g-myopic", 0, 100000}, {{3, 100}}},
      {{"g-myopic", 1, 100000}, {{4, 59}, {5, 41}}},
      {{"g-myopic", 2, 100000}, {{6, 99}, {7, 1}}},
      {{"g-myopic", 4, 100000}, {{8, 19}, {9, 78}, {10, 3}}},
      {{"g-myopic", 8, 100000}, {{13, 21}, {14, 72}, {15, 7}}},
      {{"g-myopic", 16, 100000}, {{22, 24}, {23, 51}, {24, 24}, {26, 1}}},
      {{"sigma-noisy-load", 0, 10000}, {{2, 46}, {3, 54}}},
      {{"sigma-noisy-load", 1, 10000}, {{3, 29}, {4, 71}}},
      {{"sigma-noisy-load", 2, 10000}, {{4, 9}, {5, 84}, {6, 7}}},
      {{"sigma-noisy-load", 4, 10000}, {{6, 20}, {7, 73}, {8, 7}}},
      {{"sigma-noisy-load", 8, 10000}, {{9, 36}, {10, 50}, {11, 12}, {12, 2}}},
      {{"sigma-noisy-load", 16, 10000}, {{12, 2}, {13, 33}, {14, 42}, {15, 16}, {16, 6}, {18, 1}}},
      {{"sigma-noisy-load", 0, 100000}, {{3, 100}}},
      {{"sigma-noisy-load", 1, 100000}, {{4, 95}, {5, 5}}},
      {{"sigma-noisy-load", 2, 100000}, {{5, 58}, {6, 41}, {7, 1}}},
      {{"sigma-noisy-load", 4, 100000}, {{7, 26}, {8, 69}, {9, 4}, {10, 1}}},
      {{"sigma-noisy-load", 8, 100000}, {{10, 13}, {11, 56}, {12, 26}, {13, 4}, {14, 1}}},
      {{"sigma-noisy-load", 16, 100000}, {{14, 1}, {15, 49}, {16, 35}, {17, 8}, {18, 6}, {19, 1}}},
  };
  return table;
}

/// A single run's gap must lie within this distance of the published mean:
/// wide enough for one sample of the published spread, narrow enough to
/// catch a process that stopped being the one the paper measured.
double gap_tolerance(double paper_mean) { return 3.0 + 0.25 * paper_mean; }

struct sizes {
  std::vector<nb::bin_count> bins;  ///< largest first
  nb::bin_count micro_n;            ///< bins of the isolated per-ball probes
  std::int64_t micro_balls;         ///< balls (or draws) per probe shot
};

sizes sizes_for(bool toy) {
  return toy ? sizes{{1000, 100}, 1000, 100000} : sizes{{100000, 10000}, 100000, 5000000};
}

std::size_t workers() { return std::max(1u, std::thread::hardware_concurrency()); }

struct grid_point {
  std::string process;
  int param = 0;
};

std::vector<nb::campaign_config> make_grid(const sizes& sz, std::int64_t m_per_bin,
                                           std::vector<grid_point>* points) {
  std::vector<nb::campaign_config> configs;
  for (const nb::bin_count n : sz.bins) {
    for (const auto& process : kProcesses) {
      for (const int p : kParams) {
        nb::campaign_config c;
        c.label = process + "/" + std::to_string(p) + "@n=" + std::to_string(n);
        c.m = m_per_bin * static_cast<nb::step_count>(n);
        c.process = nb::process_spec{p == 0 ? "two-choice" : process, n, static_cast<double>(p)};
        configs.push_back(std::move(c));
        if (points != nullptr) points->push_back({process, p});
      }
    }
  }
  return configs;
}

nb::campaign_options campaign_opts(std::uint64_t seed) {
  nb::campaign_options o;
  o.repeats = 1;
  o.seed = seed;
  o.threads = workers();
  return o;
}

/// Forwarding process: records one exp.cell span per bulk step call (the
/// serial engine issues exactly one per cell).
class traced_cell {
 public:
  traced_cell(nb::any_process inner, tracer* t, std::int64_t parent)
      : inner_(std::move(inner)), tracer_(t), parent_(parent) {}

  void step(nb::rng_t& rng) { inner_.step(rng); }
  void step_many(nb::rng_t& rng, nb::step_count count) {
    const double start = tracer_->now();
    inner_.step_many(rng, count);
    tracer_->record("exp.cell", start, tracer_->now(), parent_);
  }
  [[nodiscard]] const nb::load_state& state() const { return inner_.state(); }
  void reset() { inner_.reset(); }
  [[nodiscard]] std::string name() const { return inner_.name(); }

 private:
  nb::any_process inner_;
  tracer* tracer_;
  std::int64_t parent_;
};

/// Output checks of one campaign: every cell allocated exactly m balls,
/// and every gap sits within tolerance of its published Table 12.3 mean.
void check_campaign(const nb::campaign_result& r, const std::vector<grid_point>& points,
                    checker& checks, double* worst_deviation, std::string* worst_label,
                    std::string* gaps) {
  for (std::size_t c = 0; c < r.configs.size(); ++c) {
    const nb::campaign_config& config = r.configs[c].config;
    checks.expect(r.cells[c].balls == checks.expected(config.m),
                  "noisy_campaign: cell " + config.label + " did not allocate exactly m balls");
    const auto it = table_12_3().find({points[c].process, points[c].param, config.process.n});
    if (it == table_12_3().end()) continue;
    double num = 0.0;
    double den = 0.0;
    for (const auto& [gap, pct] : it->second) {
      num += gap * pct;
      den += pct;
    }
    const double paper_mean = num / den;
    const double deviation = std::abs(r.configs[c].aggregate.mean_gap() - paper_mean);
    if (gaps != nullptr) {
      *gaps += (gaps->empty() ? "{" : ", ") + json_quote(config.label) + ": [" +
               json_number(r.configs[c].aggregate.mean_gap()) + ", " + json_number(paper_mean) +
               "]";
    }
    if (deviation / gap_tolerance(paper_mean) > *worst_deviation) {
      *worst_deviation = deviation / gap_tolerance(paper_mean);
      *worst_label = config.label;
    }
    checks.expect(deviation <= gap_tolerance(paper_mean),
                  "noisy_campaign: " + config.label + " mean gap " +
                      std::to_string(r.configs[c].aggregate.mean_gap()) +
                      " is outside the Table 12.3 tolerance around " +
                      std::to_string(paper_mean));
  }
}

std::int64_t total_balls(const std::vector<nb::campaign_config>& configs) {
  std::int64_t s = 0;
  for (const auto& c : configs) s += c.m;
  return s;
}

/// Median over three shots of `shot()`, which returns seconds for `work`
/// operations; result in ns per operation.
template <typename Shot>
double ns_per_op(std::int64_t work, const Shot& shot) {
  std::vector<double> v;
  for (int i = 0; i < 3; ++i) v.push_back(shot() / static_cast<double>(work) * 1e9);
  return median(v);
}

}  // namespace

double measure_campaign_layers(const run_options& opt, bool both_n, run_output& out, tracer* t) {
  sizes sz = sizes_for(opt.toy);
  if (!both_n) sz.bins.erase(sz.bins.begin());
  std::vector<grid_point> points;
  const std::vector<nb::campaign_config> configs = make_grid(sz, 1000, &points);
  const std::int64_t balls = total_balls(configs);
  const std::uint64_t seed = nb::derive_seed(opt.seed, 0);

  // Untraced reference campaign, then the same configs and seed with each
  // cell built through a forwarding factory.
  auto t0 = clock_type::now();
  const nb::campaign_result plain = nb::run_campaign(configs, campaign_opts(seed));
  const double plain_s = since(t0);
  double worst = 0.0;
  std::string worst_label;
  check_campaign(plain, points, out.checks, &worst, &worst_label, nullptr);
  std::vector<nb::campaign_config> traced = configs;
  double wall = 0.0;
  std::optional<nb::campaign_result> r;
  {
    const scoped_span campaign(t, "exp.run_campaign");
    for (auto& c : traced) {
      c.factory = [spec = c.process, t, parent = campaign.id()] {
        return nb::any_process(traced_cell(nb::make_process(spec), t, parent));
      };
    }
    t0 = clock_type::now();
    r = nb::run_campaign(traced, campaign_opts(seed));
    wall = since(t0);
  }
  bool same = r->cells.size() == plain.cells.size();
  for (std::size_t c = 0; same && c < r->cells.size(); ++c) {
    const nb::run_result& a = r->cells[c];
    const nb::run_result& b = plain.cells[c];
    same = a.gap == b.gap && a.underload_gap == b.underload_gap && a.max_load == b.max_load &&
           a.min_load == b.min_load && a.balls == b.balls && a.seed == b.seed;
  }
  out.checks.expect(same, "noisy_campaign: traced cells differ from the untraced campaign's");
  std::string json;
  {
    const scoped_span s(t, "exp.to_json");
    json = r->to_json();
  }

  const std::vector<double> cells = t->durations("exp.cell");
  out.add("exp.cells", static_cast<double>(cells.size()), "count");
  out.add("exp.cell_s_p50", quantile(cells, 0.5), "s");
  out.add("exp.cell_s_max", quantile(cells, 1.0), "s");
  out.add("exp.worker_busy_frac", sum(cells) / (static_cast<double>(workers()) * wall), "ratio");
  out.add("exp.to_json_ms", t->total("exp.to_json") * 1e3, "ms");
  const double overhead = 1.0 - plain_s / wall;

  // Isolated per-ball costs at n = micro_n: the decide rules (serial fused
  // step_many, g = sigma = 4), one bounded draw, one deposit.
  const nb::bin_count n = sz.micro_n;
  const std::int64_t work = sz.micro_balls;
  double sink = 0.0;
  for (const std::string kind : {"two-choice", "g-bounded", "g-myopic", "sigma-noisy-load"}) {
    const double ns = ns_per_op(work, [&] {
      nb::any_process p = nb::make_process(nb::process_spec{kind, n, 4.0});
      nb::rng_t rng(nb::derive_seed(opt.seed, 2000));
      const scoped_span s(t, "noise.step_many/" + kind);
      const auto start = clock_type::now();
      p.step_many(rng, work);
      const double dt = since(start);
      sink += p.state().gap();
      return dt;
    });
    out.add("noise.step_ns." + kind, ns, "ns");
  }
  out.add("rng.draw_ns", ns_per_op(4 * work, [&] {
            nb::rng_t rng(nb::derive_seed(opt.seed, 2001));
            const scoped_span s(t, "rng.bounded");
            const auto start = clock_type::now();
            std::uint64_t acc = 0;
            for (std::int64_t i = 0; i < 4 * work; ++i) acc += nb::bounded(rng, n);
            const double dt = since(start);
            sink += static_cast<double>(acc & 0xFF);
            return dt;
          }),
          "ns");
  std::vector<nb::bin_index> idx(1 << 20);
  {
    nb::rng_t rng(nb::derive_seed(opt.seed, 2002));
    for (auto& i : idx) i = static_cast<nb::bin_index>(nb::bounded(rng, n));
  }
  const auto per_pass = static_cast<std::int64_t>(idx.size());
  const std::int64_t passes = std::max<std::int64_t>(1, 4 * work / per_pass);
  out.add("load_vector.deposit_ns", ns_per_op(passes * per_pass, [&] {
            nb::load_state state(n);
            const scoped_span s(t, "load_vector.allocate");
            const auto start = clock_type::now();
            for (std::int64_t p = 0; p < passes; ++p) {
              for (const nb::bin_index i : idx) state.allocate(i);
            }
            const double dt = since(start);
            sink += state.gap();
            return dt;
          }),
          "ns");

  out.note("campaign_configs", static_cast<double>(configs.size()));
  out.note("campaign_balls", static_cast<double>(balls));
  out.note("campaign_seed", std::to_string(seed));
  out.note("campaign_workers", static_cast<double>(workers()));
  out.note("campaign_untraced_s", plain_s);
  out.note("campaign_traced_s", wall);
  out.note("campaign_trace_overhead_frac", overhead);
  out.note("campaign_json_bytes", static_cast<double>(json.size()));
  out.note("worst_gap_deviation_over_tolerance", worst);
  out.note_str("worst_gap_deviation_config", worst_label);
  out.note("probe_sink", sink);
  return overhead;
}

void run_noisy_campaign(const run_options& opt, run_output& out, tracer* t) {
  {
    const nb::run_engine probe(campaign_opts(0).engine());
    out.note_str("engine_fingerprint", probe.fingerprint());
  }
  if (t != nullptr) {
    out.add("trace.overhead_frac", measure_campaign_layers(opt, true, out, t), "ratio");
    out.note("ratio_bases",
             "{\"trace.overhead_frac\": \"untraced run_campaign of the same configs and seed\", "
             "\"exp.worker_busy_frac\": \"workers x wall time of the traced campaign\"}");
    return;
  }
  const sizes sz = sizes_for(opt.toy);
  std::vector<grid_point> points;
  const std::vector<nb::campaign_config> configs = make_grid(sz, 1000, &points);
  const std::int64_t balls = total_balls(configs);
  const std::uint64_t warm_seed = nb::derive_seed(opt.seed, 1000);
  out.note("configs", static_cast<double>(configs.size()));
  out.note("balls_per_campaign", static_cast<double>(balls));
  out.note("workers", static_cast<double>(workers()));
  out.note("warmup_campaign_seed", std::to_string(warm_seed));

  // Set-up: the grid, one construction of every cell's process, and a
  // warm-up campaign of m = 10 n per cell (its parallel_for starts the
  // scheduler pool), several times.  Ten balls per bin keep the warm-up
  // dominated by the cells' work rather than by thread start-up latency.
  std::vector<double> setup;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = clock_type::now();
    const std::vector<nb::campaign_config> warm = make_grid(sz, 10, nullptr);
    for (const auto& c : warm) (void)nb::make_process(c.process);
    (void)nb::run_campaign(warm, campaign_opts(warm_seed));
    setup.push_back(since(t0));
  }

  // Timed phase: whole campaigns while the next one is expected to end
  // within the budget (at least one).  Campaign r uses seed
  // derive_seed(seed, r).
  timed_phase timed;
  std::vector<std::string> seeds;
  double worst = 0.0;
  std::string worst_label;
  std::string gaps;
  for (std::uint64_t round = 0;
       round == 0 || timed.wall_s + timed.wall_s / static_cast<double>(round) <= opt.seconds;
       ++round) {
    const std::uint64_t seed = nb::derive_seed(opt.seed, round);
    seeds.push_back(std::to_string(seed));
    std::optional<nb::campaign_result> r;
    timed.chunk(balls, [&] { r = nb::run_campaign(configs, campaign_opts(seed)); });
    check_campaign(*r, points, out.checks, &worst, &worst_label, round == 0 ? &gaps : nullptr);
  }
  std::vector<std::string> rates;
  for (const double rate : timed.rates) rates.push_back(json_number(rate));
  out.note("campaign_seeds", json_array(seeds));
  out.note("campaign_rates", json_array(rates));
  out.note("worst_gap_deviation_over_tolerance", worst);
  out.note_str("worst_gap_deviation_config", worst_label);
  out.note("first_campaign_gap_vs_table_12_3_mean", gaps + "}");
  // A run holds only a few campaigns, so the rate is their total over
  // their total time rather than a median.
  add_end_to_end(out, timed.rate(), setup, timed);
}

}  // namespace perfbench
