// Scalar backend of the allocation kernel: the portable reference that
// defines the lane contract.  Every ball goes straight through the
// queue-replay path with an empty queue, i.e. plain sequential draws from
// the owning lane (ball t on lane t % kernel_lanes) -- trivially the
// reference order.  Still branch-light: the decision is the branchless
// decide() and the Lemire loop essentially never iterates.
#include "core/kernel/kernel_common.hpp"

namespace nb::kernel_detail {

template <typename Bins>
void fill_scalar(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                 Bins bins, std::uint32_t* chosen, std::size_t balls) {
  const auto bound = static_cast<std::uint64_t>(n);
  for (std::size_t t = 0; t < balls; ++t) {
    chosen[t] = replay_ball(st, t % kernel_lanes, bound, threshold, snap, bins, nullptr, 0);
  }
}

template void fill_scalar<uniform_bins>(lane_soa&, bin_count, std::uint64_t, const std::uint8_t*,
                                        uniform_bins, std::uint32_t*, std::size_t);
template void fill_scalar<alias_bins>(lane_soa&, bin_count, std::uint64_t, const std::uint8_t*,
                                      alias_bins, std::uint32_t*, std::size_t);

}  // namespace nb::kernel_detail
