// The delta command model from §3 of the paper.
//
// A delta file is an ordered sequence of two command kinds:
//   copy <f, t, l> — copy reference bytes [f, f+l-1] to version [t, t+l-1];
//   add  <t, l>    — write l literal bytes (carried in the delta) at t.
//
// Commands always carry their write offset `t` in memory; whether `t` is
// *encoded* is a property of the codeword format (delta/codec.hpp), which
// is exactly the paper's "write offsets" distinction in Table 1.
#pragma once

#include <cstdint>
#include <ostream>

#include "core/interval.hpp"
#include "core/types.hpp"

namespace ipd {

/// copy <f, t, l>: move bytes from the reference into the version.
struct CopyCommand {
  offset_t from = 0;  ///< f — offset read in the reference file
  offset_t to = 0;    ///< t — offset written in the version file
  length_t length = 0;

  /// [f, f+l-1], the bytes this command reads from the reference.
  Interval read_interval() const noexcept {
    return Interval::of(from, length);
  }
  /// [t, t+l-1], the bytes this command writes in the version.
  Interval write_interval() const noexcept {
    return Interval::of(to, length);
  }

  /// True when the command's own read and write ranges overlap — legal for
  /// in-place application, but the copy direction matters (§4.1).
  bool self_overlaps() const noexcept {
    return read_interval().intersects(write_interval());
  }

  bool operator==(const CopyCommand&) const noexcept = default;
};

/// One row of a command table: the form both kinds share. A copy reads
/// `length` reference bytes at `from`; an add's `length` literal bytes
/// start at `literal`, which borrows them from where they already are
/// (the version a differ scanned, the reference, a delta's payload) or
/// from a Script's arena. Valid only while that storage is alive.
struct CommandRef {
  offset_t to = 0;
  length_t length = 0;
  offset_t from = 0;                      ///< copy source offset
  const std::uint8_t* literal = nullptr;  ///< add bytes; null for a copy

  bool is_add() const noexcept { return literal != nullptr; }
  /// The add's bytes. Precondition: is_add().
  ByteView bytes() const noexcept {
    return {literal, static_cast<std::size_t>(length)};
  }
  /// [t, t+l-1], the bytes this command writes in the version.
  Interval write_interval() const noexcept { return Interval::of(to, length); }
  /// The copy <f, t, l> this row holds. Precondition: !is_add().
  CopyCommand copy() const noexcept { return {from, to, length}; }
};

std::ostream& operator<<(std::ostream& os, const CopyCommand& c);
std::ostream& operator<<(std::ostream& os, const CommandRef& c);

}  // namespace ipd
