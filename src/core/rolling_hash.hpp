// Karp–Rabin rolling hash over fixed-size windows ("seeds").
//
// Both differencing algorithms fingerprint every seed-length substring of
// the reference file. The rolling property — O(1) update when the window
// slides one byte — is what makes the one-pass differencer linear time
// (Burns & Long, IPCCC '97, the paper's reference [5]). `roll` and `mix`
// are inline because they run once per reference position and once per
// literal version byte, where a call would cost as much as the hash.
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace ipd {

/// Polynomial rolling hash: H(w) = sum b_i * M^(n-1-i) mod 2^64, with a
/// fixed odd multiplier. Wraparound arithmetic in 64 bits serves as the
/// modulus; the table layer mixes the result before bucketing. The hash
/// of a window is a pure function of its bytes: rolling into it and
/// init() on it give the same value.
class RollingHash {
 public:
  /// Multiplier; any odd constant with good bit dispersion works.
  static constexpr std::uint64_t kMultiplier = 0x9E3779B97F4A7C15ull;

  /// Create a hash for windows of exactly `window` bytes. window >= 1.
  explicit RollingHash(std::size_t window);

  /// Hash the first `window()` bytes of `data` from scratch.
  /// Precondition: data.size() >= window().
  std::uint64_t init(ByteView data) noexcept;

  /// Slide the window one byte: remove `outgoing`, append `incoming`.
  /// This is (hash - outgoing * M^(window-1)) * M + incoming, multiplied
  /// out so that the chain through `hash` is one multiply and one add.
  std::uint64_t roll(std::uint64_t hash, std::uint8_t outgoing,
                     std::uint8_t incoming) const noexcept {
    return hash * kMultiplier + (incoming - outgoing * out_power_);
  }

  std::size_t window() const noexcept { return window_; }

  /// Final avalanche mix (splitmix64 finalizer); use before bucketing so
  /// that low bits depend on all input bytes.
  static std::uint64_t mix(std::uint64_t h) noexcept {
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
    return h;
  }

 private:
  std::size_t window_;
  std::uint64_t out_power_;  // kMultiplier^window, for removal
};

}  // namespace ipd
