// Block-partitioned parallel differencing.
//
// The version file is split into content-aligned segments, every segment
// is scanned concurrently against ONE shared reference index, and the
// per-segment scripts are stitched back together with boundary-match
// repair (a copy reaching a cut is re-extended across it, so a cut in
// the middle of a long match costs a few bytes at worst, not a broken
// command).
//
// THE DETERMINISM CONTRACT: the segment plan is a pure function of
// (version content, options) — never of the parallelism, the pool, or
// scheduling — and each segment's scan is a pure function of (index,
// reference, segment). parallelism=1 runs the identical segmented
// computation inline, so the output is byte-identical at every thread
// count by construction; the pipeline test matrix enforces this for
// every differ × format × cycle policy.
#pragma once

#include <vector>

#include "core/parallel.hpp"
#include "delta/differ.hpp"

namespace ipd {

struct SegmentPlanOptions {
  /// Versions smaller than this are never split (one segment): the
  /// fork/join and stitch overhead only pays off on large inputs.
  std::size_t min_input = std::size_t{4} << 20;
  /// Target segment size. The actual count is version_size /
  /// segment_bytes, with cuts drifting up to align_window bytes from
  /// the equal-size ideal to land on content features.
  std::size_t segment_bytes = std::size_t{1} << 20;
  /// Half-width of the window searched around each ideal cut for the
  /// content-minimal position (clamped to segment_bytes / 4 so
  /// neighbouring searches can never cross).
  std::size_t align_window = std::size_t{4} << 10;
};

/// Segment boundaries for `version`: a strictly increasing sequence
/// starting at 0 and ending at version.size() (so bounds.size() - 1
/// segments). Each interior cut is the position in a window around the
/// equal-size ideal whose content fingerprint is minimal — cuts follow
/// content, so an edit in one segment does not move the others' cuts.
/// Deterministic: depends only on (version, options).
std::vector<std::size_t> plan_segments(ByteView version,
                                       const SegmentPlanOptions& options);

/// Concatenate per-segment scripts (parts[k] scanned from
/// version[bounds[k], bounds[k+1])) into one whole-version script,
/// repairing each junction:
///   * copies whose reads abut in the reference merge into one;
///   * adjacent adds join: a length sum when both borrow one version,
///     as a differ's adds do;
///   * a copy right of the cut extends backwards over literal bytes
///     that match the reference (reproducing the serial differ's
///     backward extension the cut interrupted);
///   * a copy left of the cut extends forwards over matching literals.
/// The result borrows what the parts borrowed and takes over their
/// arenas. Pure function — no parallelism involved. Exposed for tests.
Script stitch_segments(std::vector<Script> parts,
                       const std::vector<std::size_t>& bounds,
                       ByteView reference);

struct ParallelDiffResult {
  Script script;  ///< borrows `version`, as Differ::diff()'s result does
  /// Segments actually scanned (1 == unsegmented path). This is the
  /// diff fan-out the service histograms record.
  std::size_t segments = 1;
};

/// Diff `version` against `reference` with segment-level parallelism.
/// Falls back to a plain serial diff() for differs that cannot split
/// index construction from scanning.
ParallelDiffResult diff_parallel(const Differ& differ, ByteView reference,
                                 ByteView version,
                                 const SegmentPlanOptions& plan,
                                 const ParallelContext& ctx = {});

}  // namespace ipd
