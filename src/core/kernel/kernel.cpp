// Runtime ISA dispatch and the block driver of the allocation kernel.
//
// The driver owns everything backend-independent: lane-state setup, the
// Lemire threshold hoist, cutting the run into L1-resident blocks (always
// at multiples of kernel_lanes, so every backend sees the same aligned
// lane rotation), and folding the decided bins into the caller's counts
// (a uint32 row, or a byte row with a carry list).  Backends only fill
// the block's chosen-bin buffer; which backend runs is the backend table's
// call (kernel_common.hpp).
#include "core/kernel/kernel.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/kernel/kernel_common.hpp"

namespace nb {
namespace {

/// Every backend's name, the one table kernel_isa_name, kernel_isa_from_name
/// and the flag validators read.
constexpr std::pair<const char*, kernel_isa> kIsaNames[] = {
    {"scalar", kernel_isa::scalar}, {"avx2", kernel_isa::avx2},
    {"avx512", kernel_isa::avx512}, {"auto", kernel_isa::auto_detect},
};

/// The one block driver: seeds the lane state, hoists the Lemire
/// threshold, then runs the backend `fill` (the plain or the alias form;
/// `tables` are the alias form's threshold and alias arrays) over
/// L1-resident blocks, each decided into a local buffer that
/// `fold(chosen, count)` then counts.
template <typename Fill, typename Fold, typename... Tables>
void run_blocks(Fill fill, Fold fold, bin_count n, const std::uint8_t* snap, step_count balls,
                std::uint64_t seed, const Tables*... tables) {
  NB_REQUIRE(n >= 1, "kernel needs at least one bin");
  NB_ASSERT(balls >= 0 && snap != nullptr && ((tables != nullptr) && ...));
  kernel_detail::lane_soa state;
  state.init(seed);
  const std::uint64_t threshold = kernel_detail::lemire_threshold(n);
  constexpr std::size_t block = kernel_detail::kBlockBalls;
  alignas(64) std::uint32_t buffer[block];
  while (balls > 0) {
    const std::size_t count =
        balls < static_cast<step_count>(block) ? static_cast<std::size_t>(balls) : block;
    fill(state, n, threshold, snap, tables..., buffer, count);
    fold(buffer, count);
    balls -= static_cast<step_count>(count);
  }
}

/// The two fold modes: a uint32 count row, and a byte row with a carry
/// list.
auto fold_row(std::uint32_t* row) {
  NB_ASSERT(row != nullptr);
  return [row](const std::uint32_t* chosen, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) ++row[chosen[i]];
  };
}

/// One block's byte-row fold.  Out of line, so that the loop's pointers
/// stay in registers instead of competing with run_blocks' own state.
[[gnu::noinline]] void fold_block_bytes(const std::uint32_t* chosen, std::size_t count,
                                        std::uint8_t* low, std::vector<std::uint32_t>& carries) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t c = chosen[i];
    if (++low[c] == 0) [[unlikely]] {
      carries.push_back(c);
    }
  }
}

auto fold_bytes(std::uint8_t* low, std::vector<std::uint32_t>& carries) {
  NB_ASSERT(low != nullptr);
  return [low, &carries](const std::uint32_t* chosen, std::size_t count) {
    fold_block_bytes(chosen, count, low, carries);
  };
}

}  // namespace

namespace kernel_detail {

isa_set cpu_isa_set() noexcept {
  isa_set set = isa_bit(kernel_isa::scalar);
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") == 0) return set;
  set |= isa_bit(kernel_isa::avx2);
  // AVX-512 gating: F (foundation) + DQ/BW/VL for the 64-bit mask
  // compares, narrowing converts and 256-bit masked blends the backend
  // uses -- the Skylake-SP+ server baseline -- checked on top of AVX2,
  // which every such CPU has.  CPUs with exotic partial AVX-512 subsets
  // stay on AVX2.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl")) {
    set |= isa_bit(kernel_isa::avx512);
  }
#endif
  return set;
}

kernel_isa resolve_isa_in(kernel_isa requested, isa_set supported) noexcept {
  kernel_isa best = kernel_isa::scalar;
  for (const kernel_isa isa : {kernel_isa::avx2, kernel_isa::avx512}) {
    if ((supported & isa_bit(isa)) != 0) best = isa;
  }
  if (requested == kernel_isa::auto_detect) return best;
  if ((supported & isa_bit(requested)) != 0) return requested;
  // Unsupported explicit request: downgrade to the best available backend.
  // Legal because backends are bit-identical -- but an explicitly forced
  // backend falling back is usually a misconfigured bench or CI job, so
  // say it once instead of silently benchmarking the wrong ISA.
  warn_once(std::string("kernel-isa-fallback:") + kernel_isa_name(requested),
            std::string("requested kernel ISA '") + kernel_isa_name(requested) +
                "' is not supported on this CPU; falling back to '" + kernel_isa_name(best) +
                "' (results are bit-identical across backends)");
  return best;
}

}  // namespace kernel_detail

kernel_isa detect_kernel_isa() noexcept {
  return kernel_detail::resolve_isa_in(kernel_isa::auto_detect, kernel_detail::cpu_isa_set());
}

bool kernel_isa_supported(kernel_isa isa) noexcept {
  return isa == kernel_isa::auto_detect ||
         (kernel_detail::cpu_isa_set() & kernel_detail::isa_bit(isa)) != 0;
}

kernel_isa resolve_kernel_isa(kernel_isa requested) noexcept {
  return kernel_detail::resolve_isa_in(requested, kernel_detail::cpu_isa_set());
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

void kernel_run(kernel_isa isa, std::size_t lanes, bin_count n, const std::uint8_t* snap,
                std::uint32_t* row, step_count balls, std::uint64_t seed) {
  NB_REQUIRE(lanes == kernel_lanes, "kernel_run got " + std::to_string(lanes) +
                                        " lanes; the kernel runs exactly " +
                                        std::to_string(kernel_lanes));
  run_blocks(kernel_detail::backend_for(isa).fill, fold_row(row), n, snap, balls, seed);
}

void kernel_run(kernel_isa isa, bin_count n, const std::uint8_t* snap, std::uint8_t* low,
                std::vector<std::uint32_t>& carries, step_count balls, std::uint64_t seed) {
  run_blocks(kernel_detail::backend_for(isa).fill, fold_bytes(low, carries), n, snap, balls, seed);
}

void kernel_run_alias(kernel_isa isa, bin_count n, const std::uint8_t* snap,
                      const std::uint64_t* thresh, const bin_index* alias, std::uint8_t* low,
                      std::vector<std::uint32_t>& carries, step_count balls, std::uint64_t seed) {
  run_blocks(kernel_detail::backend_for(isa).fill_alias, fold_bytes(low, carries), n, snap, balls,
             seed, thresh, alias);
}

}  // namespace nb
