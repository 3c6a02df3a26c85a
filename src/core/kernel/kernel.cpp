// Runtime ISA dispatch and the block driver of the allocation kernel.
//
// The driver owns everything backend-independent: lane-state setup, the
// Lemire threshold hoist, cutting the run into L1-resident blocks (always
// at multiples of the lane count, so every backend sees the same aligned
// lane rotation), and either folding the decided bins into the caller's
// count row (kernel_run) or leaving them in the caller's pick buffer
// (kernel_pick).  Backends only fill the block's chosen-bin buffer.
//
// The fold loop is where the kernel actually hits the memory wall at
// paper scale: `++row[chosen[i]]` is a random read-modify-write over a
// 4 MB uint32 row (n = 10^6), so the driver issues a software prefetch a
// fixed distance ahead -- the chosen buffer already holds the whole
// block's targets, making this the rare case where the prefetch address
// is known thousands of cycles early.  Execution-only: the folded counts
// do not depend on it.
#include "core/kernel/kernel.hpp"

#include <string>
#include <utility>

#include "core/kernel/kernel_common.hpp"

namespace nb {
namespace {

/// Chosen-bin buffer capacity per block: 32 KiB, L1-resident alongside the
/// lane state, and a multiple of every legal lane count's round size after
/// the driver rounds it down.
constexpr std::size_t kBlockBalls = 8192;
static_assert(kBlockBalls % kernel_max_lanes == 0);

/// Every backend's name, the one table kernel_isa_name, kernel_isa_from_name
/// and the flag validators read.
constexpr std::pair<const char*, kernel_isa> kIsaNames[] = {
    {"scalar", kernel_isa::scalar}, {"avx2", kernel_isa::avx2},
    {"avx512", kernel_isa::avx512}, {"neon", kernel_isa::neon},
    {"auto", kernel_isa::auto_detect},
};

/// How many fold iterations ahead the row prefetch runs: far enough to
/// cover an LLC miss at ~1 fold per few cycles, near enough that the line
/// is still resident when the increment arrives.
constexpr std::size_t kFoldPrefetchDist = 48;

kernel_detail::fill_fn pick_fill(kernel_isa resolved) noexcept {
  switch (resolved) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return kernel_detail::fill_avx2;
    case kernel_isa::avx512:
      return kernel_detail::fill_avx512;
#endif
#if defined(__aarch64__)
    case kernel_isa::neon:
      return kernel_detail::fill_neon;
#endif
    default:
      return kernel_detail::fill_scalar;
  }
}

/// Folds one decided block into the caller's row, prefetching the
/// increment targets kFoldPrefetchDist balls ahead.
void fold_block(std::uint32_t* row, const std::uint32_t* chosen, std::size_t count) {
  const std::size_t main = count > kFoldPrefetchDist ? count - kFoldPrefetchDist : 0;
  for (std::size_t i = 0; i < main; ++i) {
    __builtin_prefetch(&row[chosen[i + kFoldPrefetchDist]], 1, 1);
    ++row[chosen[i]];
  }
  for (std::size_t i = main; i < count; ++i) ++row[chosen[i]];
}

kernel_detail::fill_alias_fn pick_fill_alias(kernel_isa resolved) noexcept {
  switch (resolved) {
#if defined(__x86_64__) || defined(__i386__)
    case kernel_isa::avx2:
      return kernel_detail::fill_alias_avx2;
    case kernel_isa::avx512:
      return kernel_detail::fill_alias_avx512;
#endif
#if defined(__aarch64__)
    case kernel_isa::neon:
      return kernel_detail::fill_alias_neon;
#endif
    default:
      return kernel_detail::fill_alias_scalar;
  }
}

/// The one block driver: seeds the lane state, hoists the Lemire
/// threshold, then runs the backend `fill` (the plain or the alias form;
/// `tables` are the alias form's threshold and alias arrays) over
/// L1-resident blocks.  Exactly one of `row` and `picks` is non-null:
/// with a row each block folds into it, with a pick buffer the backend
/// writes every block straight into it, in ball order.
template <typename Fill, typename... Tables>
void run_blocks(Fill fill, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                std::uint32_t* row, std::uint32_t* picks, step_count balls, std::uint64_t seed,
                const Tables*... tables) {
  NB_REQUIRE(lanes >= 1 && lanes <= kernel_max_lanes, "kernel lanes must be in [1, 64]");
  NB_REQUIRE(n >= 1, "kernel needs at least one bin");
  NB_ASSERT(balls >= 0 && snap != nullptr && (row == nullptr) != (picks == nullptr) &&
            ((tables != nullptr) && ...));
  kernel_detail::lane_soa state;
  state.init(lanes, seed);
  const std::uint64_t threshold = kernel_detail::lemire_threshold(n);
  const std::size_t block = (kBlockBalls / lanes) * lanes;  // multiple of the lane count
  alignas(64) std::uint32_t buffer[kBlockBalls];
  while (balls > 0) {
    const std::size_t count =
        balls < static_cast<step_count>(block) ? static_cast<std::size_t>(balls) : block;
    std::uint32_t* chosen = picks != nullptr ? picks : buffer;
    fill(state, n, threshold, snap, tables..., chosen, count);
    if (picks != nullptr) {
      picks += count;
    } else {
      fold_block(row, chosen, count);
    }
    balls -= static_cast<step_count>(count);
  }
}

}  // namespace

kernel_isa detect_kernel_isa() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // AVX-512 gating: F (foundation) + DQ/BW/VL for the 64-bit mask
  // compares, narrowing converts and 256-bit masked blends the backend
  // uses -- the Skylake-SP+ server baseline.  CPUs with exotic partial
  // AVX-512 subsets fall back to AVX2.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")) {
    return kernel_isa::avx512;
  }
  if (__builtin_cpu_supports("avx2")) return kernel_isa::avx2;
#elif defined(__aarch64__)
  return kernel_isa::neon;  // AdvSIMD is architecturally mandatory on aarch64
#endif
  return kernel_isa::scalar;
}

bool kernel_isa_supported(kernel_isa isa) noexcept {
  switch (isa) {
    case kernel_isa::scalar:
    case kernel_isa::auto_detect:
      return true;
    case kernel_isa::avx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case kernel_isa::avx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 && __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
    case kernel_isa::neon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

kernel_isa resolve_kernel_isa(kernel_isa requested) noexcept {
  if (requested == kernel_isa::auto_detect) return detect_kernel_isa();
  if (kernel_isa_supported(requested)) return requested;
  // Unsupported explicit request: downgrade to the best available backend.
  // Legal because backends are bit-identical -- but an explicitly forced
  // backend falling back is usually a misconfigured bench or CI job, so
  // say it once instead of silently benchmarking the wrong ISA.
  const kernel_isa best = detect_kernel_isa();
  warn_once(std::string("kernel-isa-fallback:") + kernel_isa_name(requested),
            std::string("requested kernel ISA '") + kernel_isa_name(requested) +
                "' is not supported on this CPU; falling back to '" + kernel_isa_name(best) +
                "' (results are bit-identical across backends)");
  return best;
}

const char* kernel_isa_name(kernel_isa isa) noexcept {
  for (const auto& [name, value] : kIsaNames) {
    if (value == isa) return name;
  }
  return "unknown";
}

std::optional<kernel_isa> kernel_isa_from_name(std::string_view name) noexcept {
  for (const auto& [spelling, value] : kIsaNames) {
    if (name == spelling) return value;
  }
  if (name == "simd") return kernel_isa::auto_detect;
  return std::nullopt;
}

std::optional<kernel_isa> kernel_isa_flag(std::string_view flag, std::string_view value,
                                          bool allow_off) {
  const std::optional<kernel_isa> isa = kernel_isa_from_name(value);
  if (isa.has_value() || (allow_off && value == "off")) return isa;
  std::string accepted = allow_off ? "off, " : "";
  for (const auto& entry : kIsaNames) accepted += std::string(entry.first) + ", ";
  throw contract_error(std::string(flag) + " got '" + std::string(value) +
                       "'; accepted: " + accepted + "simd");
}

std::size_t kernel_lanes_flag(std::int64_t lanes) {
  NB_REQUIRE(lanes >= 1 && lanes <= static_cast<std::int64_t>(kernel_max_lanes),
             "--lanes got " + std::to_string(lanes) + "; it must be in [1, " +
                 std::to_string(kernel_max_lanes) + "]");
  return static_cast<std::size_t>(lanes);
}

void kernel_run(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                std::uint32_t* row, step_count balls, std::uint64_t seed) {
  run_blocks(pick_fill(resolve_kernel_isa(isa)), lanes, n, snap, row, nullptr, balls, seed);
}

void kernel_pick(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                 std::uint32_t* picks, step_count balls, std::uint64_t seed) {
  run_blocks(pick_fill(resolve_kernel_isa(isa)), lanes, n, snap, nullptr, picks, balls, seed);
}

void kernel_run_alias(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                      const std::uint64_t* thresh, const bin_index* alias, std::uint32_t* row,
                      step_count balls, std::uint64_t seed) {
  run_blocks(pick_fill_alias(resolve_kernel_isa(isa)), lanes, n, snap, row, nullptr, balls, seed,
             thresh, alias);
}

void kernel_pick_alias(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                       const std::uint64_t* thresh, const bin_index* alias, std::uint32_t* picks,
                       step_count balls, std::uint64_t seed) {
  run_blocks(pick_fill_alias(resolve_kernel_isa(isa)), lanes, n, snap, nullptr, picks, balls,
             seed, thresh, alias);
}

}  // namespace nb
