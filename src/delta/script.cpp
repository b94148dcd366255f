#include "delta/script.hpp"

#include <algorithm>
#include <sstream>

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
  struct Write {
    Interval interval;
    std::size_t index;
  };
  std::vector<Write> writes;
  writes.reserve(commands_.size());

  for (std::size_t i = 0; i < commands_.size(); ++i) {
    const Command& c = commands_[i];
    const length_t len = command_length(c);
    if (len == 0) {
      throw ValidationError("command " + std::to_string(i) +
                            " has zero length");
    }
    if (const auto* copy = std::get_if<CopyCommand>(&c)) {
      if (!range_fits(copy->from, copy->length, reference_length)) {
        std::ostringstream msg;
        msg << "command " << i << " (" << *copy
            << ") reads past reference end " << reference_length;
        throw ValidationError(msg.str());
      }
    }
    const Interval w = command_write_interval(c);
    if (!range_fits(w.first, len, version_length)) {
      std::ostringstream msg;
      msg << "command " << i << " writes " << w << " past version end "
          << version_length;
      throw ValidationError(msg.str());
    }
    writes.push_back({w, i});
  }

  std::sort(writes.begin(), writes.end(),
            [](const Write& a, const Write& b) {
              return a.interval.first < b.interval.first;
            });

  offset_t expected = 0;
  for (const Write& w : writes) {
    if (w.interval.first < expected) {
      std::ostringstream msg;
      msg << "command " << w.index << " write " << w.interval
          << " overlaps a previous write ending at " << expected - 1;
      throw ValidationError(msg.str());
    }
    if (w.interval.first > expected) {
      std::ostringstream msg;
      msg << "coverage gap: version bytes [" << expected << ", "
          << w.interval.first - 1 << "] are written by no command";
      throw ValidationError(msg.str());
    }
    expected = w.interval.last + 1;
  }
  if (expected != version_length) {
    std::ostringstream msg;
    msg << "coverage gap: version bytes [" << expected << ", "
        << version_length - 1 << "] are written by no command";
    if (version_length == 0 && !commands_.empty()) {
      msg.str("script is non-empty but version length is 0");
    }
    throw ValidationError(msg.str());
  }
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
