// Host hardware metadata for benchmark provenance.
//
// Every committed BENCH_throughput.json is only meaningful relative to the
// machine that produced it: a 1-core CI runner cannot reproduce a 4-thread
// scaling leg, and the regression gate must know that to skip rather than
// fail.  host_info collects the three facts the scaling matrix keys on --
// CPU model string, hardware thread count, and cache-line size -- with
// portable fallbacks (empty model, line size 64) when the platform does
// not expose them.
#pragma once

#include <cstddef>
#include <string>

namespace nb {

struct host_info {
  /// Marketing name from /proc/cpuinfo ("model name"), or "" when the
  /// platform does not expose one.
  std::string cpu_model;
  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// permits 0 for "unknown"; a floor keeps ratio arithmetic safe).
  unsigned hardware_concurrency = 1;
  /// L1 data cache line size in bytes; 64 when undetectable.  Reported
  /// with bench results as host context.
  std::size_t cache_line_size = 64;
};

/// Detects the current host.  Cheap enough to call per bench run; never
/// throws (every field has a defined fallback).
[[nodiscard]] host_info detect_host_info();

}  // namespace nb
