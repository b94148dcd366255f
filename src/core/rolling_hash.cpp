#include "core/rolling_hash.hpp"

#include <cassert>

namespace ipd {

RollingHash::RollingHash(std::size_t window) : window_(window), out_power_(1) {
  assert(window >= 1);
  for (std::size_t i = 0; i < window; ++i) {
    out_power_ *= kMultiplier;
  }
}

std::uint64_t RollingHash::init(ByteView data) noexcept {
  assert(data.size() >= window_);
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < window_; ++i) {
    h = h * kMultiplier + data[i];
  }
  return h;
}

}  // namespace ipd
