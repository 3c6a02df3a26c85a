// perfbench_driver: runs one benchmark workload against the noisebalance
// library's public API and writes its result, replay record and (traced
// runs) span trace to files.  perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out PREFIX [--toy] [--corrupt]
//
// Writes PREFIX.result.json ({"correct", "attempted", "failed", "metrics"}),
// PREFIX.record.json (seeds, engine fingerprints, host, checks) and, with
// --trace 1, PREFIX.spans.json.  Results go to files, never to stdout, so a
// library diagnostic printed mid-run cannot split them.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/host_info.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << text;
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
}

std::string result_json(const run_output& out) {
  std::string s = "{\"correct\": ";
  s += out.checks.failed() == 0 && out.checks.attempted() > 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.checks.attempted());
  s += ", \"failed\": " + std::to_string(out.checks.failed());
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const metric& m = out.metrics[i];
    if (i > 0) s += ", ";
    s += json_quote(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_quote(m.unit) + "}";
  }
  return s + "}}\n";
}

std::string record_json(const run_output& out) {
  std::string s = "{\n";
  for (const auto& [key, value] : out.record) s += "  " + json_quote(key) + ": " + value + ",\n";
  s += "  \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_quote(out.metrics[i].name) + ": " + json_number(out.metrics[i].value);
  }
  return s + "}\n}\n";
}

std::string spans_json(const tracer& t, const std::string& workload) {
  std::string s = "{\n  \"workload\": " + json_quote(workload) + ",\n  \"summary\": {";
  bool first = true;
  for (const auto& [name, entry] : t.summarize()) {
    s += first ? "\n" : ",\n";
    first = false;
    s += "    " + json_quote(name) + ": {\"count\": " + std::to_string(entry.count) +
         ", \"total_s\": " + json_number(entry.total_s) +
         ", \"self_s\": " + json_number(entry.self_s) + "}";
  }
  s += "\n  },\n  \"spans\": [";
  const auto& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    s += i > 0 ? ",\n    " : "\n    ";
    s += "{\"id\": " + std::to_string(i) + ", \"name\": " + json_quote(spans[i].name) +
         ", \"start_s\": " + json_number(spans[i].start_s) +
         ", \"end_s\": " + json_number(spans[i].end_s) +
         ", \"parent\": " + std::to_string(spans[i].parent) + "}";
  }
  return s + "\n  ]\n}\n";
}

int run(int argc, char** argv) {
  run_options opt;
  std::string out_prefix;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::runtime_error("--trace must be 0 or 1");
      opt.trace = t == "1";
    } else if (arg == "--out") {
      out_prefix = value();
    } else if (arg == "--toy") {
      opt.toy = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (!have_workload || out_prefix.empty()) {
    throw std::runtime_error("usage: perfbench_driver --workload NAME --seed N --seconds S "
                             "--trace 0|1 --out PREFIX [--toy] [--corrupt]");
  }
  if (!(opt.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");

  // Numbers from an unoptimized or assert-enabled build would mislead
  // every comparison made against them.
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  const bool ndebug = false;
#else
  const bool ndebug = true;
#endif
  if (!release || !ndebug) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a non-Release build "
                 "(build type '%s', NDEBUG %s)\n",
                 PERFBENCH_BUILD_TYPE, ndebug ? "on" : "off");
    return 3;
  }

  run_output out(opt.corrupt);
  const nb::host_info host = nb::detect_host_info();
  out.note_str("workload", opt.workload);
  out.note("seed", std::to_string(opt.seed));
  out.note("seconds", opt.seconds);
  out.note("trace", opt.trace ? "true" : "false");
  out.note("toy", opt.toy ? "true" : "false");
  out.note("corrupt", opt.corrupt ? "true" : "false");
  out.note_str("build_type", PERFBENCH_BUILD_TYPE);
  out.note_str("compiler", __VERSION__);
  out.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.note_str("cpu_model", host.cpu_model);
  out.note_str("isa", nb::kernel_isa_name(nb::resolve_kernel_isa(nb::kernel_isa::auto_detect)));

  tracer trace;
  tracer* t = opt.trace ? &trace : nullptr;
  std::fflush(stdout);
  if (opt.workload == "noisy_campaign") {
    run_noisy_campaign(opt, out, t);
  } else if (opt.workload == "batch_insert") {
    run_batch_insert(opt, out, t);
  } else if (opt.workload == "churn_drain") {
    run_churn_drain(opt, out, t);
  } else {
    throw std::runtime_error("unknown workload '" + opt.workload +
                             "' (noisy_campaign | batch_insert | churn_drain)");
  }
  std::fflush(stdout);

  if (opt.trace) {
    const double attempted = static_cast<double>(out.checks.attempted());
    out.add("fail_frac",
            attempted > 0 ? static_cast<double>(out.checks.failed()) / attempted : 1.0, "ratio");
    complete_per_layer(out);
    write_file(out_prefix + ".spans.json", spans_json(trace, opt.workload));
  }
  out.note("checks_attempted", std::to_string(out.checks.attempted()));
  out.note("checks_failed", std::to_string(out.checks.failed()));
  write_file(out_prefix + ".record.json", record_json(out));
  write_file(out_prefix + ".result.json", result_json(out));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
