// The CRWI (conflicting read/write interval) digraph of §4.2/§5.
//
// One vertex per copy command; a directed edge u→v whenever copy u's read
// interval intersects copy v's write interval (u ≠ v), meaning u must be
// applied before v to avoid a write-before-read conflict. Stored in
// compressed-sparse-row form.
//
// Lemma 1 of the paper bounds |E| ≤ L_V (each read byte can conflict with
// at most the one copy that writes it); build() asserts that bound.
#pragma once

#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "delta/command.hpp"

namespace ipd {

/// The copies of `commands` sorted by write offset (the paper's steps
/// 1-2): the vertices build() takes.
std::vector<CopyCommand> sorted_copies(std::span<const CommandRef> commands);

class CrwiGraph {
 public:
  /// Build from copies sorted by write offset (disjoint writes).
  /// `version_length` is L_V, used to verify the Lemma 1 edge bound.
  static CrwiGraph build(const std::vector<CopyCommand>& copies,
                         length_t version_length);

  /// Parallel edge discovery: copy vertices are partitioned into
  /// contiguous ranges, each range probes the (immutable) IntervalIndex
  /// concurrently, and the per-range adjacency lists are concatenated
  /// in range order — every vertex's successor list is the one the
  /// serial probe produces, so the CSR arrays are bit-identical at any
  /// parallelism. The chunking is a function of copies.size() alone,
  /// never of the context. `chunks_out` (optional) reports the fan-out
  /// actually used (1 == serial path).
  static CrwiGraph build(const std::vector<CopyCommand>& copies,
                         length_t version_length, const ParallelContext& ctx,
                         std::size_t* chunks_out = nullptr);

  std::size_t vertex_count() const noexcept { return offsets_.size() - 1; }
  std::size_t edge_count() const noexcept { return targets_.size(); }

  /// Successors of `v` (vertices whose write interval v's read overlaps),
  /// in increasing write-offset order.
  std::span<const std::uint32_t> successors(std::uint32_t v) const noexcept {
    return std::span<const std::uint32_t>(targets_)
        .subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  std::size_t out_degree(std::uint32_t v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// True if the graph contains any directed cycle (self-loops cannot
  /// occur by construction). Used by tests and the converter fast path.
  bool has_cycle() const;

  /// Empty graph (zero vertices).
  CrwiGraph() : offsets_{0} {}

 private:
  std::vector<std::size_t> offsets_;     // vertex_count()+1 entries
  std::vector<std::uint32_t> targets_;   // edge targets, CSR
};

}  // namespace ipd
