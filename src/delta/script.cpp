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
  check_command_table(command_table(*this), reference_length,
                      version_length);
}

std::vector<CommandRef> command_table(const Script& script) {
  // Any non-null literal marks an add, and an empty Bytes may hold none.
  static constexpr std::uint8_t kEmptyLiteral = 0;
  std::vector<CommandRef> table;
  table.reserve(script.size());
  for (const Command& cmd : script.commands()) {
    if (const auto* copy = std::get_if<CopyCommand>(&cmd)) {
      table.push_back({copy->to, copy->length, copy->from});
    } else {
      const AddCommand& add = std::get<AddCommand>(cmd);
      table.push_back({add.to, add.length(), 0,
                       add.data.empty() ? &kEmptyLiteral : add.data.data()});
    }
  }
  return table;
}

namespace {

constexpr unsigned kRadixBits = 11;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;
constexpr offset_t kRadixMask = kRadixBuckets - 1;

}  // namespace

// One counting pass per 11-bit digit of the largest offset, skipping
// digits all keys share.
std::vector<KeyedWrite> sort_by_offset(std::span<const offset_t> offsets) {
  std::vector<KeyedWrite> keyed(offsets.size());
  offset_t max_to = 0;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    keyed[i] = {offsets[i], i};
    max_to = std::max(max_to, offsets[i]);
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

std::vector<KeyedWrite> check_write_tiling(
    std::span<const CommandRef> commands, length_t version_length,
    Coverage coverage) {
  const bool tile = coverage == Coverage::kTile;
  // Fast path: already in offset order (write-order scripts).
  offset_t expected = 0;
  std::size_t in_order = 0;
  while (in_order < commands.size() && commands[in_order].to >= expected &&
         (!tile || commands[in_order].to == expected)) {
    expected = commands[in_order].to + commands[in_order].length;
    ++in_order;
  }
  if (in_order == commands.size() && (!tile || expected == version_length)) {
    return {};
  }

  std::vector<offset_t> starts(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    starts[i] = commands[i].to;
  }
  expected = 0;
  std::vector<KeyedWrite> sorted = sort_by_offset(starts);
  for (const KeyedWrite& k : sorted) {
    const Interval w = Interval::of(k.to, commands[k.index].length);
    if (w.first < expected) {
      std::ostringstream msg;
      msg << "command " << k.index << " write " << w
          << " overlaps a previous write ending at " << expected - 1;
      throw ValidationError(msg.str());
    }
    if (tile && w.first > expected) {
      std::ostringstream msg;
      msg << "coverage gap: version bytes [" << expected << ", "
          << w.first - 1 << "] are written by no command";
      throw ValidationError(msg.str());
    }
    expected = w.last + 1;
  }
  if (tile && expected != version_length) {
    std::ostringstream msg;
    msg << "coverage gap: version bytes [" << expected << ", "
        << version_length - 1 << "] are written by no command";
    throw ValidationError(msg.str());
  }
  return sorted;
}

std::vector<KeyedWrite> check_command_table(
    std::span<const CommandRef> commands, length_t reference_length,
    length_t version_length, Coverage coverage) {
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const CommandRef& c = commands[i];
    if (c.length == 0) {
      throw ValidationError("command " + std::to_string(i) +
                            " has zero length");
    }
    if (!c.is_add() && !range_fits(c.from, c.length, reference_length)) {
      std::ostringstream msg;
      msg << "command " << i << " (" << CopyCommand{c.from, c.to, c.length}
          << ") reads past reference end " << reference_length;
      throw ValidationError(msg.str());
    }
    if (!range_fits(c.to, c.length, version_length)) {
      std::ostringstream msg;
      msg << "command " << i << " writes " << Interval::of(c.to, c.length)
          << " past version end " << version_length;
      throw ValidationError(msg.str());
    }
  }
  return check_write_tiling(commands, version_length, coverage);
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
