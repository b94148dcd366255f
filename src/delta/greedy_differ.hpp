// Greedy hash-chain differencer (Reichenberger [11] style).
//
// Every seed-length substring of the reference is fingerprinted into a
// bucketed hash-chain index. The version is scanned left to right; at each
// offset the chain for the current seed is probed (up to max_chain
// candidates), each candidate is extended forwards as far as it matches
// and backwards over pending literal bytes, and the longest extension is
// taken greedily. This yields near-optimal encodings at quadratic worst
// case — the classic trade §2 of the paper describes against the
// linear-time one-pass algorithm.
#pragma once

#include "delta/differ.hpp"

namespace ipd {

class GreedyDiffer final : public SegmentedDiffer {
 public:
  /// Throws ValidationError unless seed_length >= 4 and
  /// min_match >= seed_length.
  explicit GreedyDiffer(const DifferOptions& options = {});

  /// Chain construction stays serial: each link records the previous
  /// head, so chain order — and with it probe order and output — is a
  /// strictly sequential property. Scans parallelize instead.
  std::unique_ptr<DifferIndex> build_index(
      ByteView reference, const ParallelContext& ctx = {}) const override;

  Script scan(const DifferIndex& index, ByteView reference,
              ByteView version) const override;

  const char* name() const noexcept override { return "greedy"; }

 private:
  DifferOptions options_;
};

}  // namespace ipd
