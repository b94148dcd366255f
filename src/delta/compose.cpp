#include "delta/compose.hpp"

#include <algorithm>

namespace ipd {
namespace {

/// δ₁'s commands sorted by write offset — the "what wrote B[x]?" map.
struct WriteMap {
  std::vector<CommandRef> commands;  // sorted by write offset
  std::vector<offset_t> starts;

  explicit WriteMap(std::span<const CommandRef> first)
      : commands(first.begin(), first.end()) {
    std::erase_if(commands, [](const CommandRef& c) { return c.length == 0; });
    std::sort(commands.begin(), commands.end(),
              [](const CommandRef& a, const CommandRef& b) {
                return a.to < b.to;
              });
    starts.reserve(commands.size());
    offset_t expected = 0;
    for (const CommandRef& c : commands) {
      if (c.to != expected) {
        throw ValidationError(
            "compose: first script's writes must tile B contiguously");
      }
      starts.push_back(expected);
      expected += c.length;
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

/// Append a copy to `out`, fused with the last one when it continues it
/// (append_add fuses adds), so composition fragments the stream no more
/// than necessary.
void emit_copy(Script& out, offset_t from, offset_t to, length_t length) {
  if (!out.empty()) {
    CommandRef& prev = out.commands().back();
    if (!prev.is_add() && prev.to + prev.length == to &&
        prev.from + prev.length == from) {
      prev.length += length;
      return;
    }
  }
  out.push(CopyCommand{from, to, length});
}

}  // namespace

Script compose_scripts(std::span<const CommandRef> first,
                       std::span<const CommandRef> second,
                       ComposeReport* report_out) {
  const WriteMap map(first);
  ComposeReport report;
  report.second_commands = second.size();

  Script out;
  for (const CommandRef& cmd : second) {
    if (cmd.length == 0) continue;
    if (cmd.is_add()) {
      out.append_add(cmd.to, cmd.bytes());
      report.literal_bytes += cmd.length;
      ++report.pieces;
      continue;
    }
    if (!range_fits(cmd.from, cmd.length, map.total)) {
      throw ValidationError("compose: second script reads past B's end");
    }
    // Resolve B[from, from+length) through δ₁, piece by piece.
    offset_t b_pos = cmd.from;
    offset_t c_pos = cmd.to;
    length_t remaining = cmd.length;
    std::size_t idx = map.locate(b_pos);
    while (remaining > 0) {
      const CommandRef& writer = map.commands[idx];
      const offset_t offset_in_writer = b_pos - map.starts[idx];
      const length_t n =
          std::min<length_t>(remaining, writer.length - offset_in_writer);

      if (writer.is_add()) {
        out.append_add(c_pos, ByteView(writer.literal + offset_in_writer,
                                       static_cast<std::size_t>(n)));
        report.literal_bytes += n;
      } else {
        emit_copy(out, writer.from + offset_in_writer, c_pos, n);
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
  return out;
}

Script fold_chain(std::span<const ParsedDelta> hops) {
  if (hops.size() < 2) {
    throw ValidationError("fold_chain: a chain needs at least two hops");
  }
  Script folded = compose_scripts(hops[0].commands, hops[1].commands);
  for (std::size_t i = 2; i < hops.size(); ++i) {
    // The next fold may borrow bytes this one gathered: keep them.
    Script next = compose_scripts(folded.commands(), hops[i].commands);
    next.share_arena(folded);
    folded = std::move(next);
  }
  return folded;
}

}  // namespace ipd
