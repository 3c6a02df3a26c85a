// Scalar backend of the allocation kernel: the portable reference that
// defines the lane contract.  Every ball goes straight through the
// queue-replay path with an empty queue, i.e. plain sequential draws from
// the owning lane -- trivially the reference order.  Still branch-light:
// the decision is the branchless decide() and the Lemire loop essentially
// never iterates.
#include "core/kernel/kernel_common.hpp"

namespace nb::kernel_detail {

void fill_scalar(lane_soa& st, bin_count n, std::uint64_t threshold, const std::uint8_t* snap,
                 std::uint32_t* chosen, std::size_t balls) {
  const std::size_t lanes = st.lanes;
  const auto bound = static_cast<std::uint64_t>(n);
  std::size_t t = 0;
  while (t + lanes <= balls) {  // full rounds: one ball per lane
    for (std::size_t l = 0; l < lanes; ++l, ++t) {
      chosen[t] = replay_ball(st, l, bound, threshold, snap, nullptr, 0);
    }
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {  // trailing partial round
    chosen[t] = replay_ball(st, l, bound, threshold, snap, nullptr, 0);
  }
}

void fill_pair_scalar(lane_soa& st, std::uint64_t b1, std::uint64_t t1, std::uint64_t b2,
                      std::uint64_t t2, std::uint32_t* out1, std::uint32_t* out2,
                      std::size_t count) {
  const std::size_t lanes = st.lanes;
  std::size_t t = 0;
  while (t + lanes <= count) {  // full rounds: one attempt per lane
    for (std::size_t l = 0; l < lanes; ++l, ++t) {
      replay_pair(st, l, b1, t1, b2, t2, nullptr, 0, out1[t], out2[t]);
    }
  }
  for (std::size_t l = 0; t < count; ++l, ++t) {  // trailing partial round
    replay_pair(st, l, b1, t1, b2, t2, nullptr, 0, out1[t], out2[t]);
  }
}

void fill_alias_scalar(lane_soa& st, bin_count n, std::uint64_t threshold,
                       const std::uint8_t* snap, const std::uint64_t* thresh,
                       const bin_index* alias, std::uint32_t* chosen, std::size_t balls) {
  const std::size_t lanes = st.lanes;
  const auto bound = static_cast<std::uint64_t>(n);
  std::size_t t = 0;
  while (t + lanes <= balls) {
    for (std::size_t l = 0; l < lanes; ++l, ++t) {
      chosen[t] = replay_ball_alias(st, l, bound, threshold, snap, thresh, alias, nullptr, 0);
    }
  }
  for (std::size_t l = 0; t < balls; ++l, ++t) {
    chosen[t] = replay_ball_alias(st, l, bound, threshold, snap, thresh, alias, nullptr, 0);
  }
}

}  // namespace nb::kernel_detail
