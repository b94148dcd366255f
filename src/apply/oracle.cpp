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

ConflictAnalysis analyze_conflicts(const Script& script,
                                   std::size_t max_conflicts) {
  ConflictAnalysis analysis;
  // Disjoint written intervals -> (last, writer index).
  std::map<offset_t, std::pair<offset_t, std::size_t>> written;

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
    const length_t len = command_length(commands[j]);
    if (len > 0) {
      const Interval w = command_write_interval(commands[j]);
      written[w.first] = {w.last, j};
    }
  }
  return analysis;
}

}  // namespace ipd
