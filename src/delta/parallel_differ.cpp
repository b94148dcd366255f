#include "delta/parallel_differ.hpp"

#include <algorithm>
#include <cassert>

#include "core/rolling_hash.hpp"
#include "obs/trace.hpp"

namespace ipd {
namespace {

/// Fingerprint window for cut alignment. Small enough that every
/// candidate range contains many windows, large enough that the
/// minimum is a real content feature and not a single byte value.
constexpr std::size_t kCutWindow = 16;

/// Shift every write offset in `script` by `delta` (segment-local to
/// whole-version coordinates).
void shift_writes(Script& script, offset_t delta) {
  if (delta == 0) return;
  for (CommandRef& c : script.commands()) {
    c.to += delta;
  }
}

}  // namespace

std::vector<std::size_t> plan_segments(ByteView version,
                                       const SegmentPlanOptions& options) {
  const std::size_t n = version.size();
  std::vector<std::size_t> bounds{0};
  if (options.segment_bytes == 0 || n < options.min_input ||
      n < 2 * options.segment_bytes || n < 2 * kCutWindow) {
    bounds.push_back(n);
    return bounds;
  }
  const std::size_t count = n / options.segment_bytes;  // >= 2
  // Clamp the search half-width so windows around consecutive ideal
  // cuts can never overlap (ideals are >= segment_bytes apart).
  const std::size_t half =
      std::min(options.align_window, options.segment_bytes / 4);

  RollingHash rh(kCutWindow);
  for (std::size_t k = 1; k < count; ++k) {
    const std::size_t ideal = k * n / count;
    std::size_t lo = ideal > half ? ideal - half : 1;
    std::size_t hi = std::min(ideal + half, n - kCutWindow);
    lo = std::max(lo, bounds.back() + 1);
    std::size_t cut = std::min(std::max(ideal, lo), hi);
    if (lo < hi) {
      // The content-minimal window start in [lo, hi), lowest position
      // winning ties — a deterministic function of the bytes alone.
      std::uint64_t h = rh.init(version.subspan(lo));
      std::uint64_t best = RollingHash::mix(h);
      cut = lo;
      for (std::size_t pos = lo + 1; pos < hi; ++pos) {
        h = rh.roll(h, version[pos - 1], version[pos - 1 + kCutWindow]);
        const std::uint64_t mixed = RollingHash::mix(h);
        if (mixed < best) {
          best = mixed;
          cut = pos;
        }
      }
    }
    if (cut > bounds.back() && cut < n) {
      bounds.push_back(cut);
    }
  }
  bounds.push_back(n);
  return bounds;
}

Script stitch_segments(std::vector<Script> parts,
                       const std::vector<std::size_t>& bounds,
                       ByteView reference) {
  assert(bounds.size() == parts.size() + 1);
  Script out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    shift_writes(parts[i], static_cast<offset_t>(bounds[i]));
    const std::span<CommandRef> cmds = parts[i].commands();
    std::size_t j = 0;
    // Junction repair: the commands straddling the cut are merged /
    // re-extended until no rule applies. Every rule moves bytes between
    // abutting commands without changing what any version byte holds,
    // so the tiling invariant survives by construction.
    while (i > 0 && j < cmds.size() && !out.empty()) {
      CommandRef& prev = out.commands().back();
      CommandRef& next = cmds[j];
      if (!prev.is_add()) {
        if (!next.is_add()) {
          // copy|copy — one match the cut split in two.
          if (prev.from + prev.length == next.from &&
              prev.to + prev.length == next.to) {
            prev.length += next.length;
            ++j;
            continue;
          }
          break;
        }
        // copy|add — forward-extend the copy over literals matching
        // the bytes after its read interval.
        std::size_t k = 0;
        while (k < next.length &&
               prev.from + prev.length + k < reference.size() &&
               reference[static_cast<std::size_t>(prev.from + prev.length +
                                                  k)] == next.literal[k]) {
          ++k;
        }
        if (k == 0) break;
        prev.length += k;
        next.to += k;
        next.literal += k;
        next.length -= k;
        if (next.length == 0) {
          ++j;  // the whole add was really the match continuing
          continue;
        }
        break;
      }
      if (!next.is_add()) {
        // add|copy — extend the copy backwards over literal bytes that
        // match the reference (the backward extension the cut denied
        // the right-hand scan).
        std::size_t k = 0;
        while (k < prev.length && next.from > k &&
               reference[static_cast<std::size_t>(next.from) - 1 - k] ==
                   prev.literal[prev.length - 1 - k]) {
          ++k;
        }
        if (k == 0) break;
        next.from -= k;
        next.to -= k;
        next.length += k;
        prev.length -= k;
        if (prev.length == 0) {
          out.pop_back();  // may expose a copy|copy merge — loop again
          continue;
        }
        break;
      }
      // add|add — always abutting at a junction; one run of the version.
      out.append_add(next.to, next.bytes());
      ++j;
    }
    for (; j < cmds.size(); ++j) {
      out.push(cmds[j]);
    }
    out.share_arena(parts[i]);
  }
  return out;
}

ParallelDiffResult diff_parallel(const Differ& differ, ByteView reference,
                                 ByteView version,
                                 const SegmentPlanOptions& plan,
                                 const ParallelContext& ctx) {
  const auto* segmented = dynamic_cast<const SegmentedDiffer*>(&differ);
  if (segmented == nullptr) {
    return {differ.diff(reference, version), 1};
  }
  const std::vector<std::size_t> bounds = plan_segments(version, plan);
  const std::size_t segments = bounds.size() - 1;
  const std::unique_ptr<DifferIndex> index =
      segmented->build_index(reference, ctx);
  if (segments <= 1) {
    return {segmented->scan(*index, reference, version), 1};
  }
  std::vector<Script> parts(segments);
  parallel_for(ctx, segments, [&](std::size_t k) {
    const std::size_t begin = bounds[k];
    const std::size_t length = bounds[k + 1] - begin;
    obs::Span span(obs::Stage::kDiffParallel, length);
    parts[k] = segmented->scan(*index, reference,
                               version.subspan(begin, length));
  });
  return {stitch_segments(std::move(parts), bounds, reference), segments};
}

}  // namespace ipd
