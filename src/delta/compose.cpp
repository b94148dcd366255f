#include "delta/compose.hpp"

#include <algorithm>

namespace ipd {
namespace {

/// δ₁'s commands sorted by write offset — the "what wrote B[x]?" map.
struct WriteMap {
  std::vector<const Command*> commands;  // sorted by write offset
  std::vector<offset_t> starts;

  explicit WriteMap(const Script& first) {
    commands.reserve(first.size());
    for (const Command& c : first.commands()) {
      if (command_length(c) > 0) {
        commands.push_back(&c);
      }
    }
    std::sort(commands.begin(), commands.end(),
              [](const Command* a, const Command* b) {
                return command_to(*a) < command_to(*b);
              });
    starts.reserve(commands.size());
    offset_t expected = 0;
    for (const Command* c : commands) {
      if (command_to(*c) != expected) {
        throw ValidationError(
            "compose: first script's writes must tile B contiguously");
      }
      starts.push_back(expected);
      expected += command_length(*c);
    }
    total = expected;
  }

  length_t total = 0;

  /// Index of the command that writes B[offset].
  std::size_t locate(offset_t offset) const {
    const auto it =
        std::upper_bound(starts.begin(), starts.end(), offset);
    return static_cast<std::size_t>(it - starts.begin()) - 1;
  }
};

/// Merges output fragments: adjacent copies that continue each other and
/// adjacent adds fuse back together, so composition does not fragment the
/// stream more than necessary.
class Emitter {
 public:
  void copy(offset_t from, offset_t to, length_t length) {
    if (auto* prev = last_copy();
        prev != nullptr && prev->to + prev->length == to &&
        prev->from + prev->length == from) {
      prev->length += length;
      return;
    }
    commands_.emplace_back(CopyCommand{from, to, length});
  }

  void add(offset_t to, ByteView data) {
    if (auto* prev = last_add();
        prev != nullptr && prev->to + prev->length() == to) {
      prev->data.insert(prev->data.end(), data.begin(), data.end());
      return;
    }
    commands_.emplace_back(AddCommand{to, Bytes(data.begin(), data.end())});
  }

  Script finish() { return Script(std::move(commands_)); }

 private:
  CopyCommand* last_copy() {
    return commands_.empty() ? nullptr
                             : std::get_if<CopyCommand>(&commands_.back());
  }
  AddCommand* last_add() {
    return commands_.empty() ? nullptr
                             : std::get_if<AddCommand>(&commands_.back());
  }
  std::vector<Command> commands_;
};

}  // namespace

Script compose_scripts(const Script& first, const Script& second,
                       ComposeReport* report_out) {
  const WriteMap map(first);
  ComposeReport report;
  report.second_commands = second.size();

  Emitter out;
  for (const Command& cmd : second.commands()) {
    if (const auto* add = std::get_if<AddCommand>(&cmd)) {
      if (!add->data.empty()) {
        out.add(add->to, add->data);
        report.literal_bytes += add->data.size();
        ++report.pieces;
      }
      continue;
    }
    const CopyCommand& copy = std::get<CopyCommand>(cmd);
    if (copy.length == 0) continue;
    if (!range_fits(copy.from, copy.length, map.total)) {
      throw ValidationError("compose: second script reads past B's end");
    }
    // Resolve B[from, from+length) through δ₁, piece by piece.
    offset_t b_pos = copy.from;
    offset_t c_pos = copy.to;
    length_t remaining = copy.length;
    std::size_t idx = map.locate(b_pos);
    while (remaining > 0) {
      const Command& writer = *map.commands[idx];
      const offset_t writer_start = map.starts[idx];
      const length_t writer_len = command_length(writer);
      const offset_t offset_in_writer = b_pos - writer_start;
      const length_t n =
          std::min<length_t>(remaining, writer_len - offset_in_writer);

      if (const auto* wcopy = std::get_if<CopyCommand>(&writer)) {
        out.copy(wcopy->from + offset_in_writer, c_pos, n);
      } else {
        const AddCommand& wadd = std::get<AddCommand>(writer);
        out.add(c_pos,
                ByteView(wadd.data)
                    .subspan(static_cast<std::size_t>(offset_in_writer),
                             static_cast<std::size_t>(n)));
        report.literal_bytes += n;
      }
      ++report.pieces;
      b_pos += n;
      c_pos += n;
      remaining -= n;
      ++idx;
    }
  }

  if (report_out != nullptr) {
    *report_out = report;
  }
  return out.finish();
}

}  // namespace ipd
