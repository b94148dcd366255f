// Differencing algorithms: given reference R and version V, produce a
// Script of copy/add commands that rebuilds V from R (§2/§3).
//
// The paper's delta files come from the linear-time constant-space
// algorithm of Burns & Long [5] / Ajtai et al. [1]; our `kOnePass`
// differencer follows that design (fixed-size seed-fingerprint table, one
// scan per file). `kGreedy` is the Reichenberger [11]-style hash-chain
// greedy algorithm: better compression, quadratic worst case — the classic
// trade the paper's §2 describes. The in-place converter is differencer-
// agnostic; every experiment can run under either.
#pragma once

#include <memory>
#include <string>

#include "core/parallel.hpp"
#include "delta/script.hpp"

namespace ipd {

struct DifferOptions {
  /// Fingerprinted substring ("seed") length; also the minimum match the
  /// matcher can detect. 16 bytes works well on binary and text alike.
  /// At least 4 for the greedy and one-pass differs.
  std::size_t seed_length = 16;
  /// Minimum copy length worth emitting; shorter matches become literals.
  /// At least seed_length for the greedy and one-pass differs.
  std::size_t min_match = 16;
  /// Greedy only: maximum hash-chain positions probed per version offset.
  /// Bounds the quadratic blow-up on repetitive inputs.
  std::size_t max_chain = 64;
  /// One-pass only: log2 of the fingerprint table size, 8 to 28. The
  /// table is this size regardless of input length — the algorithm's
  /// "constant space" — at 4 bytes per slot.
  std::size_t table_bits = 18;
  /// Block-aligned only: the alignment granularity.
  std::size_t block_size = 512;
};

enum class DifferKind {
  kGreedy,        ///< hash chains, longest match, near-optimal encodings
  kOnePass,       ///< linear time, constant space, paper-faithful substrate
  kSuffixGreedy,  ///< suffix-array exact longest match — the §2 optimum
  kBlockAligned,  ///< fixed-block baseline (§2 pre-history); worst
};

const char* differ_name(DifferKind kind) noexcept;

class Differ {
 public:
  virtual ~Differ() = default;

  /// Compute a delta script. The result is in write order, tiles
  /// [0, version.size()) exactly, and every copy reads inside the
  /// reference — i.e. Script::validate() passes by construction.
  virtual Script diff(ByteView reference, ByteView version) const = 0;

  virtual const char* name() const noexcept = 0;
};

/// Opaque reference index a SegmentedDiffer builds once and scans many
/// times. Indexes may hold views into the reference bytes, so the
/// reference must outlive the index. Indexes are immutable after
/// construction — concurrent scan() calls against one index are safe.
class DifferIndex {
 public:
  virtual ~DifferIndex() = default;

 protected:
  DifferIndex() = default;
};

/// A differ whose work splits into "index the reference" and "scan a
/// version against that index". The split is what makes segmented
/// parallel differencing possible (delta/parallel_differ.hpp): the
/// index is built once — itself parallel when a ParallelContext is
/// supplied — and version segments are scanned concurrently against it.
///
/// Contract: scan(*build_index(R), R, V) == diff(R, V), and scan's
/// output depends only on (index contents, R, V) — never on which
/// thread runs it.
class SegmentedDiffer : public Differ {
 public:
  /// diff() via the split: build the index, scan the whole version.
  Script diff(ByteView reference, ByteView version) const override;

  /// Build the reference index. `ctx` parallelizes construction where
  /// the index structure permits; the resulting index is byte-identical
  /// at any parallelism.
  virtual std::unique_ptr<DifferIndex> build_index(
      ByteView reference, const ParallelContext& ctx = {}) const = 0;

  /// Scan `version` (typically a segment of a larger file) against an
  /// index previously built for `reference`. Write offsets in the
  /// result are relative to the start of `version`. Throws
  /// ValidationError when handed another differ's index.
  virtual Script scan(const DifferIndex& index, ByteView reference,
                      ByteView version) const = 0;
};

std::unique_ptr<Differ> make_differ(DifferKind kind,
                                    const DifferOptions& options = {});

/// One-shot convenience wrapper.
Script diff_bytes(DifferKind kind, ByteView reference, ByteView version,
                  const DifferOptions& options = {});

/// Incremental script assembly in write order: literals accumulate into a
/// pending add; copies flush it. Used by both differencers and handy for
/// building test fixtures.
class ScriptBuilder {
 public:
  /// Append one literal version byte at the current write offset.
  void literal(std::uint8_t byte);

  /// Append `data` as literal bytes.
  void literals(ByteView data);

  /// Remove the last `n` pending literal bytes (used when a match extends
  /// backwards over bytes previously classed as literals).
  /// Precondition: n <= pending_literals().
  void retract(std::size_t n);

  /// Emit copy of `length` reference bytes starting at `from`.
  void copy(offset_t from, length_t length);

  std::size_t pending_literals() const noexcept { return pending_.size(); }
  offset_t write_offset() const noexcept {
    return cursor_ + pending_.size();
  }

  /// Flush pending literals and return the finished script.
  Script finish();

 private:
  void flush();

  Script script_;
  Bytes pending_;
  offset_t cursor_ = 0;  // write offset at the start of `pending_`
};

}  // namespace ipd
