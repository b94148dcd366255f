// Scratch-space reconstruction: the traditional decoder the paper's §1
// contrasts against. Reads the reference, materialises the version in a
// separate buffer — needs both resident at once.
#pragma once

#include "delta/codec.hpp"
#include "delta/script.hpp"

namespace ipd {

/// Apply `script` to `reference`, producing the version in fresh storage.
/// Works for ANY valid script (commands may be in any order, §3).
/// Throws ValidationError on out-of-bounds commands.
Bytes apply_script(const Script& script, ByteView reference);

/// Decode a serialized delta file and apply it. Verifies the container
/// checksums and the version CRC; throws FormatError on mismatch.
Bytes apply_delta(ByteView delta, ByteView reference);

/// Outcome of a non-destructive delta verification.
struct VerifyResult {
  bool ok = false;
  /// Empty when ok; otherwise the first failure, human-readable.
  std::string failure;
  length_t version_length = 0;
  bool in_place_capable = false;  ///< container flag AND Equation 2 hold
};

/// Dry-run a delta against a reference without touching either: parses
/// (parse_delta), reconstructs into scratch, checks the version CRC, and
/// re-checks the in-place flag with scan_equation2. Never throws for
/// verification failures (only for allocation-level errors).
VerifyResult verify_delta(ByteView delta, ByteView reference);

}  // namespace ipd
