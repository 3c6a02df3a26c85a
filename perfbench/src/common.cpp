#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

void checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void run_output::note(const std::string& key, double value) { note(key, json_number(value)); }

void run_output::note_str(const std::string& key, const std::string& value) {
  note(key, json_quote(value));
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      // exp: the campaign scheduler (noisy_campaign)
      {"exp.cells", "count"},
      {"exp.cell_s_p50", "s"},
      {"exp.cell_s_max", "s"},
      {"exp.worker_busy_frac", "ratio"},
      {"exp.to_json_ms", "ms"},
      // core/noise decide rules, rng and load_vector deposits, isolated
      // (noisy_campaign)
      {"noise.step_ns.two-choice", "ns"},
      {"noise.step_ns.g-bounded", "ns"},
      {"noise.step_ns.g-myopic", "ns"},
      {"noise.step_ns.sigma-noisy-load", "ns"},
      {"rng.draw_ns", "ns"},
      {"load_vector.deposit_ns", "ns"},
      // core/process window routing (batch_insert)
      {"process.windows", "count"},
      {"process.kernel_ball_frac", "ratio"},
      {"process.window_ms_p50", "ms"},
      {"process.window_ms_p99", "ms"},
      // window phases (batch_insert)
      {"load_vector.snapshot_ms", "ms"},
      {"kernel.run_ms", "ms"},
      {"kernel.balls_per_s", "1/s"},
      {"kernel.computed_gb_per_s", "GB/s"},
      {"noise.batch_commit_ms", "ms"},
      {"load_vector.apply_ms", "ms"},
      {"noise.stale_refresh_ms", "ms"},
      {"noise.batch_commit_frac", "ratio"},
      {"load_vector.observe_ms", "ms"},
      // sim churn cycles (churn_drain)
      {"sim.cycle_ms_p50", "ms"},
      {"sim.cycle_ms_p99", "ms"},
      {"process.arrive_ms", "ms"},
      {"process.depart_ms", "ms"},
      {"process.arrive_kernel_frac", "ratio"},
      {"process.depart_kernel_frac", "ratio"},
      {"thread_pool.speedup_vs_1t", "ratio"},
      {"thread_pool.parallel_efficiency", "ratio"},
      {"sim.warmup_s", "s"},
      // every workload
      {"trace.overhead_frac", "ratio"},
      {"fail_frac", "ratio"},
  };
  return names;
}

void complete_per_layer(run_output& out) {
  std::vector<metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                 [&](const metric& m) { return m.name == name; });
    ordered.push_back(it != out.metrics.end() ? *it : metric{name, 0.0, unit});
  }
  out.metrics = std::move(ordered);
}

void add_end_to_end(run_output& out, double events_per_s, const std::vector<double>& setup_s,
                    const timed_phase& phase) {
  out.add("events_per_s", events_per_s, "1/s");
  out.add("setup_s", median(setup_s), "s");
  out.add("cpu_ns_per_event", phase.cpu_s / static_cast<double>(phase.events) * 1e9, "ns");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  // The host's clock moves run to run; the record keeps what this run got.
  out.note("core_ghz_median", median(phase.ghz));
}

double core_ghz() {
  // A chain of dependent 64-bit multiplies: 3 cycles each on current x86-64
  // cores and at least that on AArch64, independent of what the rest of
  // the core is doing.  (Dependent adds of an immediate are no good: newer
  // cores fold them at rename.)
  constexpr int kRounds = 1 << 15;  // 8 multiplies per round
  constexpr double kCyclesPerMul = 3.0;
  double best = 0.0;
  for (int shot = 0; shot < 3; ++shot) {
    std::uint64_t x = 1;
    const std::uint64_t k = 0x9E3779B97F4A7C15ULL;
    const auto t0 = clock_type::now();
    for (int i = 0; i < kRounds; ++i) {
#if defined(__x86_64__)
      asm volatile(
          "imul %1, %0\n\timul %1, %0\n\timul %1, %0\n\timul %1, %0\n\t"
          "imul %1, %0\n\timul %1, %0\n\timul %1, %0\n\timul %1, %0"
          : "+r"(x)
          : "r"(k));
#elif defined(__aarch64__)
      asm volatile(
          "mul %0, %0, %1\n\tmul %0, %0, %1\n\tmul %0, %0, %1\n\tmul %0, %0, %1\n\t"
          "mul %0, %0, %1\n\tmul %0, %0, %1\n\tmul %0, %0, %1\n\tmul %0, %0, %1"
          : "+r"(x)
          : "r"(k));
#else
#error "core_ghz needs an x86-64 or AArch64 multiply chain"
#endif
    }
    const double dt = since(t0);
    best = std::max(best, kCyclesPerMul * 8.0 * kRounds / dt / 1e9);
  }
  return best;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

double since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::uint64_t digest(const std::vector<nb::load_t>& loads) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nb::load_t x : loads) {
    h ^= static_cast<std::uint32_t>(x);
    h *= 1099511628211ULL;
  }
  return h;
}

std::int64_t load_sum(const std::vector<nb::load_t>& loads) {
  std::int64_t s = 0;
  for (const nb::load_t x : loads) s += x;
  return s;
}

double median_normalized(const nb::load_state& s) {
  if (!s.levels_valid()) return s.sorted_normalized_desc()[s.n() / 2];
  // y sorted descending; y[n/2] is the level holding the (n/2 + 1)-th
  // fullest bin.
  const nb::bin_count want = s.n() / 2 + 1;
  nb::bin_count seen = 0;
  nb::load_t level = s.min_load();
  bool found = false;
  s.levels().for_each_level_desc([&](nb::load_t l, nb::bin_count c) {
    if (found) return;
    seen += c;
    if (seen >= want) {
      level = l;
      found = true;
    }
  });
  return static_cast<double>(level) - s.average_load();
}

std::string json_quote(const std::string& raw) {
  std::string out = "\"";
  for (const unsigned char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<std::string>& raw) {
  std::string s = "[";
  for (std::size_t i = 0; i < raw.size(); ++i) s += (i > 0 ? ", " : "") + raw[i];
  return s + "]";
}

}  // namespace perfbench
