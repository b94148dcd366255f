// The two ways a batch apply can decode a delta, side by side for the
// differential checks in fuzz_codec and test_codec:
//
//  * borrowed — apply_delta / apply_delta_inplace, which execute
//    parse_delta's command table with the adds still in the artifact;
//  * owning   — deserialize_delta, then apply_script / apply_inplace on
//    the materialised Script, with the same container checks around it.
//
// Both must accept and reject alike, with the same exception type, and
// leave the same bytes behind.
#pragma once

#include <string>
#include <typeinfo>
#include <utility>

#include "apply/apply.hpp"
#include "apply/inplace_apply.hpp"
#include "core/checksum.hpp"
#include "delta/codec.hpp"

namespace ipd::fuzzcorpus {

/// How one path ended: the dynamic type of the ipd::Error that rejected
/// the delta (empty when accepted), and the bytes it produced (scratch)
/// or left in the buffer (in place).
struct ApplyOutcome {
  std::string error;
  Bytes bytes;

  bool operator==(const ApplyOutcome&) const = default;
};

template <typename Fn>
std::string error_type_of(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
  } catch (const Error& e) {
    return typeid(e).name();
  }
  return {};
}

inline ApplyOutcome borrowed_scratch(ByteView delta, ByteView reference) {
  ApplyOutcome out;
  out.error = error_type_of([&] { out.bytes = apply_delta(delta, reference); });
  return out;
}

inline ApplyOutcome owning_scratch(ByteView delta, ByteView reference) {
  ApplyOutcome out;
  out.error = error_type_of([&] {
    const DeltaFile file = deserialize_delta(delta);
    if (file.reference_length != reference.size()) {
      throw FormatError("reference length mismatch");
    }
    Bytes version = apply_script(file.script, reference);
    if (crc32c(version) != file.version_crc) {
      throw FormatError("version CRC mismatch");
    }
    out.bytes = std::move(version);
  });
  return out;
}

inline ApplyOutcome borrowed_inplace(ByteView delta, Bytes buffer) {
  ApplyOutcome out;
  out.error = error_type_of([&] {
    buffer.resize(static_cast<std::size_t>(apply_delta_inplace(delta, buffer)));
  });
  out.bytes = std::move(buffer);
  return out;
}

inline ApplyOutcome owning_inplace(ByteView delta, Bytes buffer) {
  ApplyOutcome out;
  out.error = error_type_of([&] {
    const DeltaFile file = deserialize_delta(delta);
    if (!file.in_place) {
      throw ValidationError("not marked in-place reconstructible");
    }
    if (file.reference_length > buffer.size() ||
        file.version_length > buffer.size()) {
      throw ValidationError("buffer too small");
    }
    apply_inplace(file.script, buffer, file.reference_length,
                  file.version_length);
    const auto version_size = static_cast<std::size_t>(file.version_length);
    if (crc32c(ByteView(buffer).first(version_size)) != file.version_crc) {
      throw FormatError("version CRC mismatch");
    }
    buffer.resize(version_size);
  });
  out.bytes = std::move(buffer);
  return out;
}

}  // namespace ipd::fuzzcorpus
