// rng is header-only for inlining; this TU exists to give the module a
// compiled anchor (and to catch ODR/ABI issues early in the build).
#include "rng/rng.hpp"

namespace nb {
namespace {
// Force instantiation of the templated entry points.
[[maybe_unused]] std::uint64_t instantiate_smoke() {
  xoshiro256pp a(1);
  gaussian_sampler gs;
  return bounded(a, 10) ^ static_cast<std::uint64_t>(canonical(a) * 8) ^
         static_cast<std::uint64_t>(gs.next(a)) ^ shard_stream_seed(a.next(), 2);
}
}  // namespace
}  // namespace nb
