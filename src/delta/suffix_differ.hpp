// Suffix-array greedy differencer — the §2 "greedy method [11]" done
// exactly: at every version offset, find the LONGEST match anywhere in
// the reference (no hash table approximation, no chain caps) and take it.
//
// Greedy longest-match is provably optimal for copy/add encodings with
// uniform command costs, so this differencer is the benches' compression
// upper bound: it quantifies how much the linear-time one-pass algorithm
// gives up for its speed — the very trade §2 describes. Construction is
// O(n log n) (doubling suffix array + LCP), each lookup O(log n) via
// binary search over the suffix array extended with LCP refinement.
#pragma once

#include <vector>

#include "delta/differ.hpp"

namespace ipd {

/// Suffix array + longest-match queries over an immutable reference.
/// Exposed separately so tests can hit the matcher directly.
class SuffixMatcher {
 public:
  explicit SuffixMatcher(ByteView reference);

  struct Match {
    offset_t position = 0;  ///< start in the reference
    length_t length = 0;    ///< 0 when nothing matches
  };

  /// Longest reference substring matching a prefix of `query`.
  Match longest_match(ByteView query) const;

  /// The suffix array itself (test observability).
  const std::vector<std::uint32_t>& suffix_array() const noexcept {
    return sa_;
  }

 private:
  ByteView ref_;
  std::vector<std::uint32_t> sa_;
};

class SuffixDiffer final : public SegmentedDiffer {
 public:
  /// Throws ValidationError when min_match is 0.
  explicit SuffixDiffer(const DifferOptions& options = {});

  /// The suffix array is built once per reference (the expensive part);
  /// longest_match() queries against it are read-only and scan freely
  /// from many threads.
  std::unique_ptr<DifferIndex> build_index(
      ByteView reference, const ParallelContext& ctx = {}) const override;

  Script scan(const DifferIndex& index, ByteView reference,
              ByteView version) const override;

  const char* name() const noexcept override { return "suffix-greedy"; }

 private:
  DifferOptions options_;
};

}  // namespace ipd
