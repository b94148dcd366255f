// Closed byte intervals [first, last], the paper's native vocabulary.
//
// The paper states every condition in terms of closed intervals
// ([f, f+l-1], [t, t+l-1]); we keep that convention so the code reads
// against the paper, and provide the empty-interval edge cases the paper
// elides (zero-length commands never occur in valid scripts, but the
// type must still behave).
#pragma once

#include <algorithm>
#include <ostream>

#include "core/types.hpp"

namespace ipd {

/// Closed interval of byte offsets. Invariant: first <= last.
struct Interval {
  offset_t first = 0;
  offset_t last = 0;

  /// Interval covering `length` bytes starting at `start`.
  /// Precondition: length >= 1.
  static constexpr Interval of(offset_t start, length_t length) noexcept {
    return Interval{start, start + length - 1};
  }

  constexpr length_t length() const noexcept { return last - first + 1; }

  constexpr bool contains(offset_t x) const noexcept {
    return first <= x && x <= last;
  }

  /// The paper's conflict test: [a] ∩ [b] ≠ ∅  (Equation 1 / 3).
  constexpr bool intersects(const Interval& o) const noexcept {
    return first <= o.last && o.first <= last;
  }

  constexpr bool operator==(const Interval&) const noexcept = default;
};

/// True when [start, start + length) lies inside [0, limit). Written so
/// it cannot wrap: `start + length > limit` accepts a hostile 64-bit
/// offset near 2^64 whose sum wraps below the limit.
constexpr bool range_fits(offset_t start, length_t length,
                          length_t limit) noexcept {
  return length <= limit && start <= limit - length;
}

inline std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << '[' << iv.first << ", " << iv.last << ']';
}

}  // namespace ipd
