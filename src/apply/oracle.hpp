// Write-before-read conflict oracle (§4.1).
//
// Given a script in its serial application order, enumerate every WR
// conflict: a copy command whose read interval intersects the write
// interval of an earlier command. An empty conflict list is exactly the
// paper's Equation 2 — the script is in-place reconstructible.
//
// The oracle is the test suite's ground truth: converter output must
// analyze clean, and deliberately conflicting scripts must not. The
// streaming appliers check the same condition one command at a time
// (admit_inplace_write) against a WrittenBytes set: one bit per version
// byte, V/8 bytes of caller-provided storage (the device updaters charge
// it to RamArena).
// Writes tile the version and each copy reads as many bytes as it
// writes, so a whole update costs O(n + V/64) word operations. A sorted
// span array probed at the last-touched span lost to it: release_corpus
// hit that hint on only 30% of lookups, and inserts moved up to 1,230
// spans.
#pragma once

#include <vector>

#include "delta/script.hpp"

namespace ipd {

/// Which bytes of [0, limit) have been written: one bit each, in 64-bit
/// words kept in borrowed storage and accessed through memcpy. Exact, so
/// a later write nested in or shadowing an earlier one never hides it.
class WrittenBytes {
 public:
  /// Storage bytes a set over [0, limit) needs: ceil(limit / 64) words.
  static constexpr std::size_t storage_bytes(length_t limit) noexcept {
    return static_cast<std::size_t>(limit / 64 + (limit % 64 != 0)) * 8;
  }

  /// Empty set over [0, limit) in `storage` (at least
  /// storage_bytes(limit) bytes, zeroed here, outliving the set).
  WrittenBytes(MutByteView storage, length_t limit);

  /// True when a byte of `range` inside [0, limit) was inserted; bytes
  /// past the limit were never written (a copy may read past the version
  /// when the reference is longer).
  bool intersects(const Interval& range) const noexcept;
  /// Mark `range` written. Precondition: range.last < limit.
  void insert(const Interval& range) noexcept;

  /// The end of the set: the version length.
  length_t limit() const noexcept { return limit_; }

 private:
  std::uint64_t word(std::size_t w) const noexcept;

  MutByteView words_;
  length_t limit_;
};

/// Why admit_inplace_write refused a command.
enum class WriteRefusal { kWritePastVersion, kReadPastReference, kConflict };

/// Throws admit_inplace_write's error for command `index`, naming `who`:
/// ValidationError for a bound, ConflictError for a conflict. Out of
/// line, so the gate itself stays small enough to inline.
[[noreturn]] void refuse_inplace_write(WriteRefusal why, const char* who,
                                       std::uint64_t index);

/// The gate every streaming in-place applier runs on command `index`
/// (length >= 1, as the decoder guarantees) before its first write: the
/// write lies inside the version (written.limit()), a copy reads inside
/// the reference, and, Equation 2, no copy reads a byte an earlier
/// command of this run wrote. Throws through refuse_inplace_write;
/// otherwise marks the write in `written`. Inline: it runs once per
/// command.
inline void admit_inplace_write(WrittenBytes& written,
                                const CommandRef& command,
                                length_t reference_length, const char* who,
                                std::uint64_t index) {
  if (!range_fits(command.to, command.length, written.limit())) {
    refuse_inplace_write(WriteRefusal::kWritePastVersion, who, index);
  }
  if (!command.is_add()) {
    if (!range_fits(command.from, command.length, reference_length)) {
      refuse_inplace_write(WriteRefusal::kReadPastReference, who, index);
    }
    if (written.intersects(Interval::of(command.from, command.length))) {
      refuse_inplace_write(WriteRefusal::kConflict, who, index);
    }
  }
  written.insert(Interval::of(command.to, command.length));
}

struct Conflict {
  std::size_t reader_index;  ///< position of the conflicting copy
  std::size_t writer_index;  ///< position of the earlier writing command
  Interval overlap;          ///< bytes read after being overwritten
};

struct ConflictAnalysis {
  std::vector<Conflict> conflicts;
  /// Total bytes that would be read corrupt.
  length_t corrupt_bytes = 0;

  bool in_place_safe() const noexcept { return conflicts.empty(); }
};

/// Enumerate WR conflicts of `script` under serial application, stopping
/// after `max_conflicts` (the default enumerates all).
ConflictAnalysis analyze_conflicts(
    const Script& script,
    std::size_t max_conflicts = static_cast<std::size_t>(-1));

}  // namespace ipd
