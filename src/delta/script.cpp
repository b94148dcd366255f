#include "delta/script.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <utility>

namespace ipd {

length_t Script::version_length() const noexcept {
  length_t total = 0;
  for (const Command& c : commands_) {
    total += command_length(c);
  }
  return total;
}

ScriptSummary Script::summary() const noexcept {
  ScriptSummary s;
  for (const Command& c : commands_) {
    if (const auto* copy = std::get_if<CopyCommand>(&c)) {
      ++s.copy_count;
      s.copied_bytes += copy->length;
    } else {
      ++s.add_count;
      s.added_bytes += std::get<AddCommand>(c).length();
    }
  }
  return s;
}

std::vector<CopyCommand> Script::copies() const {
  std::vector<CopyCommand> out;
  for (const Command& c : commands_) {
    if (const auto* copy = std::get_if<CopyCommand>(&c)) {
      out.push_back(*copy);
    }
  }
  return out;
}

std::vector<AddCommand> Script::adds() const {
  std::vector<AddCommand> out;
  for (const Command& c : commands_) {
    if (const auto* add = std::get_if<AddCommand>(&c)) {
      out.push_back(*add);
    }
  }
  return out;
}

void Script::validate(length_t reference_length,
                      length_t version_length) const {
  std::vector<WriteRange> writes;
  writes.reserve(commands_.size());
  for (std::size_t i = 0; i < commands_.size(); ++i) {
    const Command& c = commands_[i];
    const WriteRange w{command_to(c), command_length(c)};
    check_command_bounds(i, std::get_if<CopyCommand>(&c), w,
                         reference_length, version_length);
    writes.push_back(w);
  }
  check_write_tiling(writes, version_length);
}

void check_command_bounds(std::size_t index, const CopyCommand* copy,
                          WriteRange write, length_t reference_length,
                          length_t version_length) {
  if (write.length == 0) {
    throw ValidationError("command " + std::to_string(index) +
                          " has zero length");
  }
  if (copy != nullptr &&
      !range_fits(copy->from, copy->length, reference_length)) {
    std::ostringstream msg;
    msg << "command " << index << " (" << *copy
        << ") reads past reference end " << reference_length;
    throw ValidationError(msg.str());
  }
  if (!range_fits(write.to, write.length, version_length)) {
    std::ostringstream msg;
    msg << "command " << index << " writes "
        << Interval::of(write.to, write.length) << " past version end "
        << version_length;
    throw ValidationError(msg.str());
  }
}

namespace {

constexpr unsigned kRadixBits = 11;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
constexpr offset_t kRadixMask = kRadixBuckets - 1;

}  // namespace

// One counting pass per 11-bit digit of the largest offset, skipping
// digits all keys share.
std::vector<KeyedWrite> sort_by_offset(std::span<const WriteRange> ranges) {
  std::vector<KeyedWrite> keyed(ranges.size());
  offset_t max_to = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    keyed[i] = {ranges[i].to, i};
    max_to = std::max(max_to, ranges[i].to);
  }
  std::vector<KeyedWrite> spare(keyed.size());
  std::array<std::size_t, kRadixBuckets> count;
  const auto digit = [](offset_t to, unsigned shift) {
    return static_cast<std::size_t>((to >> shift) & kRadixMask);
  };
  const auto bits = static_cast<unsigned>(std::bit_width(max_to));
  for (unsigned shift = 0; shift < bits; shift += kRadixBits) {
    count.fill(0);
    for (const KeyedWrite& w : keyed) ++count[digit(w.to, shift)];
    if (count[digit(keyed.front().to, shift)] == keyed.size()) continue;
    std::size_t sum = 0;
    for (std::size_t& c : count) sum += std::exchange(c, sum);
    for (const KeyedWrite& w : keyed) spare[count[digit(w.to, shift)]++] = w;
    keyed.swap(spare);
  }
  return keyed;
}

std::vector<KeyedWrite> check_write_tiling(std::span<const WriteRange> writes,
                                           length_t version_length) {
  // Fast path: already in offset order and tiling (write-order scripts).
  offset_t expected = 0;
  std::size_t in_order = 0;
  while (in_order < writes.size() && writes[in_order].to == expected) {
    expected += writes[in_order++].length;
  }
  if (in_order == writes.size() && expected == version_length) {
    return {};
  }

  expected = 0;
  std::vector<KeyedWrite> sorted = sort_by_offset(writes);
  for (const KeyedWrite& k : sorted) {
    const Interval w = Interval::of(k.to, writes[k.index].length);
    if (w.first < expected) {
      std::ostringstream msg;
      msg << "command " << k.index << " write " << w
          << " overlaps a previous write ending at " << expected - 1;
      throw ValidationError(msg.str());
    }
    if (w.first > expected) {
      std::ostringstream msg;
      msg << "coverage gap: version bytes [" << expected << ", "
          << w.first - 1 << "] are written by no command";
      throw ValidationError(msg.str());
    }
    expected = w.last + 1;
  }
  if (expected != version_length) {
    std::ostringstream msg;
    msg << "coverage gap: version bytes [" << expected << ", "
        << version_length - 1 << "] are written by no command";
    throw ValidationError(msg.str());
  }
  return sorted;
}

bool Script::in_write_order() const noexcept {
  offset_t expected = 0;
  for (const Command& c : commands_) {
    if (command_to(c) != expected) {
      return false;
    }
    expected += command_length(c);
  }
  return true;
}

void Script::sort_by_write_offset() {
  std::stable_sort(commands_.begin(), commands_.end(),
                   [](const Command& a, const Command& b) {
                     return command_to(a) < command_to(b);
                   });
}

std::string Script::to_text(std::size_t max_commands) const {
  std::ostringstream os;
  const std::size_t shown = std::min(commands_.size(), max_commands);
  for (std::size_t i = 0; i < shown; ++i) {
    os << i << ": " << commands_[i] << '\n';
  }
  if (shown < commands_.size()) {
    os << "... (" << commands_.size() - shown << " more commands)\n";
  }
  return os.str();
}

bool same_effect(const Script& a, const Script& b) {
  Script sa = a;
  Script sb = b;
  sa.sort_by_write_offset();
  sb.sort_by_write_offset();
  return sa.commands() == sb.commands();
}

}  // namespace ipd
