// Static delta-safety verifier — the "delta linter".
//
// The paper's contribution is a *static* argument: a permuted delta is
// in-place reconstructible iff its command order induces no
// write-before-read conflict (Equation 2). The converter carries that
// proof while it permutes, but every trust boundary downstream of it —
// the distribution server's cache, the OTA client's flash path, the
// archive loader — historically accepted any byte stream that framed
// correctly. A buggy or malicious encoder could therefore brick a device.
//
// Verifier::check proves or refutes safety without applying anything:
//
//   well-formedness — container header, checksums, codeword stream
//                     (truncated varints, add payload shorter than
//                     declared, unknown opcodes);
//   bounds          — u64 offset+length overflow, copy reads inside
//                     [0, R), writes inside [0, V);
//   coverage        — write intervals pairwise disjoint and exactly
//                     tiling [0, V) (no gaps, no double-writes);
//   in-place        — Equation 2 via scan_equation2 in O(n log n),
//                     emitting a counterexample trace ("conflict: cmd#i
//                     reads [a, b] after cmd#j wrote it") per violation.
//
// The first three are parse_delta's own decode step and model check, so
// the Verifier accepts exactly what parse_delta accepts (bar the
// max_payload_bytes limit); a table the model check rejects is then
// diagnosed in full instead of at its first fault.
//
// Each deviation becomes a Finding with a severity: errors make a delta
// unservable/unflashable, warnings flag style the paper cares about
// (adds not grouped at the end of an in-place script, a sequential
// delta whose writes are not contiguous). Reports render as text or
// JSON (report.cpp) for the `ipdelta lint` CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "core/types.hpp"
#include "delta/codec.hpp"

namespace ipd {

enum class Severity : std::uint8_t {
  kWarning = 0,  ///< suspicious but servable
  kError = 1,    ///< unsafe: must not be cached, served, or applied
};

/// Which analysis produced a finding; stable names for JSON consumers.
enum class Check : std::uint8_t {
  kContainer = 0,        ///< magic/header/length/trailing-garbage faults
  kPayload = 1,          ///< checksum mismatch or decompression fault
  kCodeword = 2,         ///< command stream malformed or truncated
  kOffsetOverflow = 3,   ///< offset + length wraps around u64
  kReadBounds = 4,       ///< copy reads outside the reference file
  kWriteBounds = 5,      ///< command writes outside the version file
  kWriteOverlap = 6,     ///< two commands write the same version byte
  kCoverage = 7,         ///< version bytes no command writes
  kWriteBeforeRead = 8,  ///< Equation 2 violation (conflict trace)
  kInPlaceFlag = 9,      ///< header claims in-place but conflicts exist
  kAddPlacement = 10,    ///< in-place script with adds before copies
  kWriteDiscontinuity = 11,  ///< sequential delta with permuted writes
};

const char* severity_name(Severity severity) noexcept;
const char* check_name(Check check) noexcept;

/// One diagnostic: what failed, where, and — for conflict traces — the
/// pair of commands plus the byte range that ties them together.
struct Finding {
  Severity severity = Severity::kError;
  Check check = Check::kContainer;
  std::string message;
  /// Serial index of the offending command (the reader, for conflicts).
  std::optional<std::size_t> command;
  /// Serial index of the other party (the earlier writer, for conflicts
  /// and overlaps).
  std::optional<std::size_t> other;
  /// Version/reference byte range the finding is about.
  std::optional<Interval> bytes;
};

struct VerifyOptions {
  /// Treat write-before-read conflicts as errors even when the header
  /// does not claim in-place applicability. Set by consumers that will
  /// apply without scratch space (OTA flash path, `lint --require-in-place`).
  bool require_in_place = false;
  /// Stop collecting findings after this many (the verdict booleans are
  /// still exact); guards the report against adversarial deltas built
  /// purely out of violations.
  std::size_t max_findings = 64;
  /// Refuse compressed payloads declaring more than this many decoded
  /// bytes before allocating — the lint must not be the allocation bomb.
  std::uint64_t max_payload_bytes = 1ull << 30;
};

struct Report {
  /// Container parsed, checksums matched, every codeword decoded.
  bool well_formed = false;
  /// Equation 2 holds (meaningful once well_formed and bounds are clean):
  /// the script can be applied in place in its serial order.
  bool in_place_safe = false;
  /// Parsed container header, when the container was readable at all.
  std::optional<DeltaHeader> header;
  std::size_t command_count = 0;
  std::vector<Finding> findings;
  /// max_findings was hit; findings is a prefix of the full diagnosis.
  bool findings_truncated = false;

  std::size_t error_count() const noexcept;
  std::size_t warning_count() const noexcept;
  /// The first error finding's message; "" when there is none.
  std::string first_error() const;
  /// Safe to cache/serve/apply: no error-severity findings.
  bool ok() const noexcept { return error_count() == 0; }

  /// Human-readable multi-line rendering (one finding per line).
  std::string to_text() const;
  /// Machine-readable rendering; schema documented in docs/VERIFY.md.
  std::string to_json() const;
};

class Verifier {
 public:
  Verifier() = default;
  explicit Verifier(VerifyOptions options) : options_(options) {}

  /// Statically analyze a serialized delta container. Never throws on
  /// bad input — malformed bytes become findings.
  Report check(ByteView delta) const;

  const VerifyOptions& options() const noexcept { return options_; }

 private:
  VerifyOptions options_;
};

}  // namespace ipd
