#include "apply/oracle.hpp"

#include <algorithm>
#include <map>

namespace ipd {

bool WrittenIntervals::intersects(const Interval& range) const {
  // Spans are disjoint and sorted, so only the last one starting at or
  // before range.last can reach back into range.
  const auto it = spans_.upper_bound(range.last);
  return it != spans_.begin() && std::prev(it)->second >= range.first;
}

void WrittenIntervals::insert(const Interval& range) {
  auto next = spans_.upper_bound(range.first);
  auto at = next;
  if (next != spans_.begin() && std::prev(next)->second + 1 >= range.first) {
    at = std::prev(next);  // grow the span that reaches range.first
  } else {
    at = spans_.emplace_hint(next, range.first, range.last);
  }
  at->second = std::max(at->second, range.last);
  // Absorb every later span the grown one now overlaps or touches.
  while (next != spans_.end() && next->first <= at->second + 1) {
    at->second = std::max(at->second, next->second);
    next = spans_.erase(next);
  }
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

  const auto& commands = script.commands();
  for (std::size_t j = 0; j < commands.size(); ++j) {
    if (const auto* copy = std::get_if<CopyCommand>(&commands[j])) {
      if (copy->length > 0) {
        const Interval read = copy->read_interval();
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
    if (command_length(commands[j]) > 0) {
      paint(written, command_write_interval(commands[j]), j);
    }
  }
  return analysis;
}

}  // namespace ipd
