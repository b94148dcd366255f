// Write-before-read conflict oracle (§4.1).
//
// Given a script in its serial application order, enumerate every WR
// conflict: a copy command whose read interval intersects the write
// interval of an earlier command. An empty conflict list is exactly the
// paper's Equation 2 — the script is in-place reconstructible.
//
// The oracle is the test suite's ground truth: converter output must
// analyze clean, and deliberately conflicting scripts must not. The
// streaming appliers check the same condition one command at a time
// against a WrittenIntervals set.
#pragma once

#include <map>
#include <memory_resource>
#include <vector>

#include "delta/script.hpp"

namespace ipd {

/// Written bytes as disjoint, coalesced closed intervals (touching
/// intervals merge), so a later write nested in or shadowing an earlier
/// one never hides it: O(log n) query and insert, nodes from a pool.
class WrittenIntervals {
 public:
  bool intersects(const Interval& range) const;
  void insert(const Interval& range);
  std::size_t spans() const noexcept { return spans_.size(); }

 private:
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::map<offset_t, offset_t> spans_{&pool_};  ///< first -> last
};

struct Conflict {
  std::size_t reader_index;  ///< position of the conflicting copy
  std::size_t writer_index;  ///< position of the earlier writing command
  Interval overlap;          ///< bytes read after being overwritten
};

struct ConflictAnalysis {
  std::vector<Conflict> conflicts;
  /// Total bytes that would be read corrupt.
  length_t corrupt_bytes = 0;

  bool in_place_safe() const noexcept { return conflicts.empty(); }
};

/// Enumerate WR conflicts of `script` under serial application, stopping
/// after `max_conflicts` (the default enumerates all).
ConflictAnalysis analyze_conflicts(
    const Script& script,
    std::size_t max_conflicts = static_cast<std::size_t>(-1));

}  // namespace ipd
