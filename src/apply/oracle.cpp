#include "apply/oracle.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

namespace ipd {

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// The bits of byte `b`'s word from its bit up, and up to its bit.
constexpr std::uint64_t from_bit(offset_t b) noexcept {
  return kAll << (b % 64);
}
constexpr std::uint64_t through_bit(offset_t b) noexcept {
  return kAll >> (63 - b % 64);
}

}  // namespace

void refuse_inplace_write(WriteRefusal why, const char* who,
                          std::uint64_t index) {
  switch (why) {
    case WriteRefusal::kWritePastVersion:
      throw ValidationError(std::string(who) + ": command writes past version");
    case WriteRefusal::kReadPastReference:
      throw ValidationError(std::string(who) + ": copy reads past reference");
    case WriteRefusal::kConflict:
      break;
  }
  throw ConflictError(std::string(who) +
                      ": write-before-read conflict at command " +
                      std::to_string(index));
}

WrittenBytes::WrittenBytes(MutByteView storage, length_t limit)
    : words_(storage.first(storage_bytes(limit))), limit_(limit) {
  std::fill(words_.begin(), words_.end(), std::uint8_t{0});
}

std::uint64_t WrittenBytes::word(std::size_t w) const noexcept {
  std::uint64_t v;
  std::memcpy(&v, words_.data() + w * 8, 8);
  return v;
}

bool WrittenBytes::intersects(const Interval& range) const noexcept {
  if (range.first >= limit_) {
    return false;
  }
  const offset_t last = std::min<offset_t>(range.last, limit_ - 1);
  auto w = static_cast<std::size_t>(range.first / 64);
  const auto end = static_cast<std::size_t>(last / 64);
  if (w == end) {
    return (word(w) & from_bit(range.first) & through_bit(last)) != 0;
  }
  if ((word(w) & from_bit(range.first)) != 0) {
    return true;
  }
  for (++w; w < end; ++w) {
    if (word(w) != 0) {
      return true;
    }
  }
  return (word(end) & through_bit(last)) != 0;
}

void WrittenBytes::insert(const Interval& range) noexcept {
  const auto w = static_cast<std::size_t>(range.first / 64);
  const auto end = static_cast<std::size_t>(range.last / 64);
  const auto set = [this](std::size_t at, std::uint64_t bits) {
    const std::uint64_t v = word(at) | bits;
    std::memcpy(words_.data() + at * 8, &v, 8);
  };
  if (w == end) {
    set(w, from_bit(range.first) & through_bit(range.last));
    return;
  }
  set(w, from_bit(range.first));
  std::memset(words_.data() + (w + 1) * 8, 0xFF, (end - w - 1) * 8);
  set(end, through_bit(range.last));
}

namespace {

/// Disjoint written intervals: first -> (last, index of the command that
/// wrote those bytes last).
using WriterMap = std::map<offset_t, std::pair<offset_t, std::size_t>>;

/// Record that command `writer` wrote `w`: it paints over whatever parts
/// of earlier spans it covers, so a later write nested in or shadowing
/// an earlier one never hides the earlier bytes it did not overwrite.
void paint(WriterMap& written, const Interval& w, std::size_t writer) {
  auto it = written.lower_bound(w.first);
  if (it != written.begin()) {
    const auto prev = std::prev(it);
    const auto [last, owner] = prev->second;
    if (last >= w.first) {
      // Keep the span's part left of w, and its part right of w.
      prev->second.first = w.first - 1;
      if (last > w.last) {
        written.emplace_hint(it, w.last + 1, std::pair{last, owner});
      }
    }
  }
  // Drop the spans starting inside w, keeping the tail of the last one.
  while (it != written.end() && it->first <= w.last) {
    if (it->second.first > w.last) {
      written.emplace(w.last + 1, it->second);
    }
    it = written.erase(it);
  }
  written.emplace_hint(it, w.first, std::pair{w.last, writer});
}

}  // namespace

ConflictAnalysis analyze_conflicts(const Script& script,
                                   std::size_t max_conflicts) {
  ConflictAnalysis analysis;
  WriterMap written;

  const std::span<const CommandRef> commands = script.commands();
  for (std::size_t j = 0; j < commands.size(); ++j) {
    if (!commands[j].is_add()) {
      if (commands[j].length > 0) {
        const Interval read = commands[j].copy().read_interval();
        // First candidate: the last interval starting at or before
        // read.last; walk left while intervals still intersect.
        auto it = written.upper_bound(read.last);
        while (it != written.begin()) {
          --it;
          const Interval w{it->first, it->second.first};
          if (w.last < read.first) {
            break;  // disjoint & sorted: nothing further left intersects
          }
          const Interval overlap{std::max(w.first, read.first),
                                 std::min(w.last, read.last)};
          analysis.conflicts.push_back(
              Conflict{j, it->second.second, overlap});
          analysis.corrupt_bytes += overlap.length();
          if (analysis.conflicts.size() >= max_conflicts) {
            return analysis;
          }
        }
      }
    }
    if (commands[j].length > 0) {
      paint(written, commands[j].write_interval(), j);
    }
  }
  return analysis;
}

}  // namespace ipd
