// Match extension shared by the differencers, and the option checks of
// the seed-hashing ones (one-pass and greedy). Internal header.
//
// Once a candidate is found, a differencer asks how far the reference
// and version agree forwards, and the seed-hashing ones also backwards
// over the pending literal run. These loops compare 8 bytes per step through `memcpy`
// word loads (legal at any alignment, as in core/checksum.cpp) and find
// the first differing byte with a bit scan; the lengths are exactly
// those of a byte-at-a-time compare.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "delta/differ.hpp"

namespace ipd {

inline std::uint64_t load_word(const std::uint8_t* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// Bytes before the lowest-addressed set byte of a nonzero XOR of two
/// loaded words.
inline std::size_t low_equal_bytes(std::uint64_t diff) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<std::size_t>(std::countl_zero(diff)) / 8;
  }
}

/// Bytes after the highest-addressed set byte of a nonzero XOR.
inline std::size_t high_equal_bytes(std::uint64_t diff) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countl_zero(diff)) / 8;
  } else {
    return static_cast<std::size_t>(std::countr_zero(diff)) / 8;
  }
}

/// Length of the common prefix of a[ai..] and b[bi..].
inline std::size_t match_forward(ByteView a, std::size_t ai, ByteView b,
                                 std::size_t bi) noexcept {
  const std::size_t limit = std::min(a.size() - ai, b.size() - bi);
  const std::uint8_t* pa = a.data() + ai;
  const std::uint8_t* pb = b.data() + bi;
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    const std::uint64_t diff = load_word(pa + n) ^ load_word(pb + n);
    if (diff != 0) return n + low_equal_bytes(diff);
  }
  while (n < limit && pa[n] == pb[n]) ++n;
  return n;
}

/// Length of the common suffix of a[..ai) and b[..bi), at most `limit`.
inline std::size_t match_backward(ByteView a, std::size_t ai, ByteView b,
                                  std::size_t bi, std::size_t limit) noexcept {
  limit = std::min({limit, ai, bi});
  const std::uint8_t* pa = a.data() + ai;
  const std::uint8_t* pb = b.data() + bi;
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    const std::uint64_t diff = load_word(pa - n - 8) ^ load_word(pb - n - 8);
    if (diff != 0) return n + high_equal_bytes(diff);
  }
  while (n < limit && pa[-1 - static_cast<std::ptrdiff_t>(n)] ==
                          pb[-1 - static_cast<std::ptrdiff_t>(n)]) {
    ++n;
  }
  return n;
}

/// Throws ValidationError unless seed_length >= 4 and
/// min_match >= seed_length. Checked in every build type: the match
/// loops and the one-pass table rely on both.
inline void check_seed_options(const DifferOptions& options,
                               const char* differ) {
  if (options.seed_length < 4) {
    throw ValidationError(std::string(differ) +
                          " differ: seed_length must be at least 4");
  }
  if (options.min_match < options.seed_length) {
    throw ValidationError(std::string(differ) +
                          " differ: min_match must be at least seed_length");
  }
}

}  // namespace ipd
