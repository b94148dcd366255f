// Linear-time, constant-space differencer, after Burns & Long (IPCCC '97,
// the paper's reference [5]) and Ajtai et al. [1].
//
// Space is constant because the only data structure is a fingerprint table
// of fixed size 2^table_bits, independent of input length: one pass over
// the reference populates it (first-come-keeps-slot, so earlier — and for
// versioned data, usually aligned — positions win), then one pass over the
// version probes it, verifies candidates, and extends matches in both
// directions. Collisions and evictions only cost compression, never
// correctness, which is exactly the trade [5] makes to reach linear time.
//
// The table holds 32-bit first positions: 1 MiB at the default
// table_bits = 18, small enough to stay in a core's L2. It is filled back
// to front in blocks of positions, each block's slots hashed forwards and
// then stored in reverse with no load or compare, so the lowest position
// is the last store to its slot. The scan looks its candidates up a few
// positions ahead and prefetches the reference bytes they point at, so a
// literal run overlaps its misses; literal runs leave as whole ranges.
//
// Limits: references must be shorter than UINT32_MAX (4 GiB - 1) bytes,
// since positions are 32-bit and UINT32_MAX marks an empty slot;
// build_index throws ValidationError otherwise, before reading the
// reference. Options must satisfy seed_length >= 4,
// min_match >= seed_length and 8 <= table_bits <= 28, or the
// constructor throws ValidationError.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "delta/differ.hpp"

namespace ipd {

/// The fixed-size fingerprint table, exposed so tests can assert the
/// parallel construction path produces the exact serial table.
struct OnePassIndex final : public DifferIndex {
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();
  /// At or above this many reference positions, build_index with an
  /// enabled ParallelContext fills per-chunk tables concurrently; below
  /// it the fork/join costs more than the fill saves.
  static constexpr std::size_t kParallelMinPositions = std::size_t{1} << 20;

  std::size_t seed = 0;
  std::size_t mask = 0;
  /// slot -> first reference position with that fingerprint; empty()
  /// when the reference is shorter than one seed (nothing can match).
  std::vector<std::uint32_t> table;
};

class OnePassDiffer final : public SegmentedDiffer {
 public:
  /// Throws ValidationError on options outside the limits above.
  explicit OnePassDiffer(const DifferOptions& options = {});

  /// Table construction parallelizes cleanly: each chunk of reference
  /// positions fills a private table with its own first occurrences,
  /// and a lowest-position merge reproduces the serial
  /// first-occurrence-wins table bit for bit.
  std::unique_ptr<DifferIndex> build_index(
      ByteView reference, const ParallelContext& ctx = {}) const override;

  Script scan(const DifferIndex& index, ByteView reference,
              ByteView version) const override;

  const char* name() const noexcept override { return "one-pass"; }

 private:
  DifferOptions options_;
};

}  // namespace ipd
