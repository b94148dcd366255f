#include "delta/script.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "delta/codec.hpp"

namespace ipd {

namespace {

// Any non-null literal marks an add, and an empty add may have no bytes.
constexpr std::uint8_t kEmptyLiteral = 0;
constexpr std::size_t kMinChunk = 4096;

}  // namespace

Script::Script(ParsedDelta&& parsed)
    : commands_(std::move(parsed.commands)) {
  if (!parsed.decompressed.empty()) {
    arena_.push_back(std::make_shared<Bytes>(std::move(parsed.decompressed)));
  }
}

void Script::push_add(offset_t to, ByteView bytes) {
  commands_.push_back(
      {to, bytes.size(), 0, bytes.empty() ? &kEmptyLiteral : bytes.data()});
}

void Script::push_owned_add(offset_t to, ByteView bytes) {
  push_add(to, bytes);
  if (!bytes.empty()) {
    std::uint8_t* copy = allocate(bytes.size());
    std::memcpy(copy, bytes.data(), bytes.size());
    commands_.back().literal = copy;
  }
}

void Script::append_add(offset_t to, ByteView more) {
  if (empty() || !commands_.back().is_add() ||
      commands_.back().to + commands_.back().length != to) {
    push_add(to, more);
    return;
  }
  if (more.empty()) return;
  CommandRef& last = commands_.back();
  const auto held = static_cast<std::size_t>(last.length);
  if (last.literal + held != more.data()) {
    // Gather the run into the arena; one gathered at its end grows there.
    std::uint8_t* to;
    if (room_for(more.size()) &&
        last.literal + held == arena_.back()->data() + arena_.back()->size()) {
      to = allocate(more.size());
    } else {
      std::uint8_t* run = allocate(held + more.size());
      std::memcpy(run, last.literal, held);
      last.literal = run;
      to = run + held;
    }
    std::memcpy(to, more.data(), more.size());
  }
  last.length += more.size();
}

void Script::share_arena(const Script& other) {
  arena_.insert(arena_.end(), other.arena_.begin(), other.arena_.end());
}

std::size_t Script::arena_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& chunk : arena_) total += chunk->size();
  return total;
}

bool Script::room_for(std::size_t n) const noexcept {
  return !arena_.empty() && arena_.back().use_count() == 1 &&
         arena_.back()->capacity() - arena_.back()->size() >= n;
}

std::uint8_t* Script::allocate(std::size_t n) {
  if (!room_for(n)) {
    arena_.push_back(std::make_shared<Bytes>());
    arena_.back()->reserve(std::max({n, kMinChunk, arena_bytes()}));
  }
  Bytes& chunk = *arena_.back();
  chunk.resize(chunk.size() + n);  // within capacity: no byte moves
  return chunk.data() + chunk.size() - n;
}

length_t Script::version_length() const noexcept {
  length_t total = 0;
  for (const CommandRef& c : commands_) {
    total += c.length;
  }
  return total;
}

ScriptSummary Script::summary() const noexcept {
  ScriptSummary s;
  for (const CommandRef& c : commands_) {
    if (c.is_add()) {
      ++s.add_count;
      s.added_bytes += c.length;
    } else {
      ++s.copy_count;
      s.copied_bytes += c.length;
    }
  }
  return s;
}

void Script::validate(length_t reference_length,
                      length_t version_length) const {
  check_command_table(commands_, reference_length, version_length);
}

bool Script::operator==(const Script& other) const noexcept {
  const auto same = [](const CommandRef& a, const CommandRef& b) {
    return a.to == b.to && a.length == b.length && a.is_add() == b.is_add() &&
           (a.is_add() ? std::equal(a.literal, a.literal + a.length, b.literal)
                       : a.from == b.from);
  };
  return std::equal(commands_.begin(), commands_.end(),
                    other.commands_.begin(), other.commands_.end(), same);
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

bool in_write_order(std::span<const CommandRef> commands) noexcept {
  offset_t expected = 0;
  for (const CommandRef& c : commands) {
    if (c.to != expected) {
      return false;
    }
    expected += c.length;
  }
  return true;
}

void Script::sort_by_write_offset() {
  std::stable_sort(commands_.begin(), commands_.end(),
                   [](const CommandRef& a, const CommandRef& b) {
                     return a.to < b.to;
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

bool same_effect(Script a, Script b) {
  a.sort_by_write_offset();
  b.sort_by_write_offset();
  return a == b;
}

}  // namespace ipd
