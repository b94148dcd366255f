// In-place reconstruction (§1, §4.1): the version file materialises in the
// very buffer holding the reference, using no scratch space proportional
// to the file — the whole point of the paper.
//
// Copies whose read and write intervals overlap are legal for a single
// command (§4.1): they are performed left-to-right when f >= t and
// right-to-left when f < t, so no byte is read after being overwritten.
// std::memmove has exactly these semantics, so overlapping_copy is one
// memmove; tests keep the §4.1 byte loop as its oracle.
#pragma once

#include "delta/codec.hpp"
#include "delta/script.hpp"

namespace ipd {

/// Apply `script` inside `buffer`.
///
/// On entry the first `reference_length` bytes of `buffer` hold the
/// reference; `buffer.size()` must be >= max(reference_length,
/// version_length) — the caller provisions the larger of the two, which
/// is the storage a device needs anyway to hold either file version.
/// On return the first version_length bytes hold the version.
///
/// The script is trusted to be in-place safe (Equation 2); applying a
/// conflicting script silently corrupts, exactly as the paper describes —
/// check untrusted input with the oracle (apply/oracle.hpp) first.
void apply_inplace(const Script& script, MutByteView buffer,
                   length_t reference_length, length_t version_length);

/// Decode a serialized delta file (must carry the in_place flag) and apply
/// it inside `buffer` (sized per apply_inplace). Returns the version
/// length. Verifies the reconstruction against the file's version CRC.
/// Adds are copied straight from `delta`, which must not overlap
/// `buffer`; every container and bounds check runs before the first
/// byte of `buffer` is written.
length_t apply_delta_inplace(ByteView delta, MutByteView buffer);

/// Overlap-safe single-copy primitive used by both appliers; exposed for
/// tests. Copies length bytes from `from` to `to` within `buffer` with
/// the result of copying left-to-right when from >= to, right-to-left
/// otherwise. Precondition: both ranges lie inside `buffer`.
void overlapping_copy(MutByteView buffer, offset_t from, offset_t to,
                      length_t length) noexcept;

}  // namespace ipd
