// Topological sort with on-line cycle breaking (§4.2 step 4, §5).
//
// One iterative three-colour DFS, modified: when a back edge u→v closes
// a cycle (the gray stack path v…u), the policy chooses a victim vertex
// to delete; its copy command will be re-encoded as an add.
//
// Unwind invariant: when the victim sits at stack position p, the stack
// is unwound to p and every gray vertex above it turns white again, to be
// rediscovered from below p or visited later as a root. The back edge's
// source is on top of the stack, so it is always unwound or deleted and
// never finishes with an edge to a gray vertex. Hence every finished
// vertex's surviving successors finished before it, and the single
// pass's reverse postorder is a topological order of the survivors.
// Re-exploration after an unwind is bounded by deletions × (V + E).
#pragma once

#include <span>

#include "inplace/crwi_graph.hpp"
#include "inplace/cycle_policy.hpp"

namespace ipd {

struct TopoSortResult {
  /// Surviving vertices in topological order: for every surviving edge
  /// u→v, u precedes v.
  std::vector<std::uint32_t> order;
  /// Vertices deleted to break cycles (→ copy-to-add conversion).
  std::vector<std::uint32_t> deleted;
  /// Cycles on which the policy acted.
  std::size_t cycles_found = 0;
  /// Total vertices walked while scanning cycles (the locally-minimum
  /// policy's extra work, §5).
  std::size_t cycle_length_sum = 0;
};

/// Sort `g` topologically, breaking cycles with `policy`.
///
/// `costs[v]` is the compression lost by deleting v (used by kLocalMin;
/// must have g.vertex_count() entries). `pre_deleted` (optional, may be
/// empty) marks vertices removed before the sort starts — the exact-
/// optimal driver computes a feedback vertex set up front and passes it
/// here. kExactOptimal itself is not accepted (use exact_min_fvs +
/// pre_deleted); throws ValidationError.
TopoSortResult topo_sort_breaking_cycles(
    const CrwiGraph& g, BreakPolicy policy,
    std::span<const std::uint64_t> costs,
    const std::vector<bool>& pre_deleted = {});

/// Check that `order` (a permutation of surviving vertices) respects every
/// edge of `g` between survivors. Test helper.
bool is_topological_order(const CrwiGraph& g,
                          std::span<const std::uint32_t> order,
                          std::span<const std::uint32_t> deleted);

}  // namespace ipd
