#include "apply/inplace_apply.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "core/checksum.hpp"
#include "obs/trace.hpp"

namespace ipd {
namespace {

void check_bounds(const Script& script, MutByteView buffer,
                  length_t reference_length, length_t version_length) {
  if (buffer.size() < reference_length || buffer.size() < version_length) {
    throw ValidationError(
        "in-place apply: buffer must hold max(reference, version)");
  }
  const std::less<> below;  // orders pointers into unrelated buffers
  for (const CommandRef& cmd : script.commands()) {
    if (!cmd.is_add() &&
        !range_fits(cmd.from, cmd.length, reference_length)) {
      throw ValidationError("in-place apply: copy reads past reference");
    }
    if (cmd.is_add() && below(cmd.literal, buffer.data() + buffer.size()) &&
        below(buffer.data(), cmd.literal + cmd.length)) {
      throw ValidationError("in-place apply: add bytes lie in the buffer");
    }
    if (!range_fits(cmd.to, cmd.length, version_length)) {
      throw ValidationError("in-place apply: command writes past version");
    }
  }
}

}  // namespace

void overlapping_copy(MutByteView buffer, offset_t from, offset_t to,
                      length_t length) noexcept {
  if (length == 0 || from == to) {
    return;
  }
  // §4.1 copies left-to-right when f >= t and right-to-left when f < t,
  // so no byte is overwritten before it is read: memmove's contract.
  std::memmove(buffer.data() + to, buffer.data() + from,
               static_cast<std::size_t>(length));
}

void apply_inplace(const Script& script, MutByteView buffer,
                   length_t reference_length, length_t version_length) {
  check_bounds(script, buffer, reference_length, version_length);
  for (const CommandRef& cmd : script.commands()) {
    if (cmd.is_add()) {
      std::copy_n(cmd.literal, cmd.length,
                  buffer.begin() + static_cast<std::ptrdiff_t>(cmd.to));
    } else {
      overlapping_copy(buffer, cmd.from, cmd.to, cmd.length);
    }
  }
}

length_t apply_delta_inplace(ByteView delta, MutByteView buffer) {
  obs::Span span(obs::Stage::kApplyInplace, delta.size());
  const ParsedDelta parsed = parse_delta(delta);
  const DeltaHeader& header = parsed.header;
  if (!header.in_place) {
    throw ValidationError(
        "delta file is not marked in-place reconstructible; apply it with "
        "scratch space or convert it first");
  }
  if (header.reference_length > buffer.size() ||
      header.version_length > buffer.size()) {
    throw ValidationError("in-place apply: buffer too small");
  }
  // parse_delta has bounded every read by the reference and every write
  // by the version, both inside `buffer`.
  std::uint8_t* const base = buffer.data();
  for (const CommandRef& cmd : parsed.commands) {
    if (cmd.is_add()) {
      std::memcpy(base + cmd.to, cmd.literal,
                  static_cast<std::size_t>(cmd.length));
    } else {
      std::memmove(base + cmd.to, base + cmd.from,
                   static_cast<std::size_t>(cmd.length));
    }
  }
  const ByteView version =
      ByteView(buffer).first(static_cast<std::size_t>(header.version_length));
  if (crc32c(version) != header.version_crc) {
    throw FormatError(
        "in-place apply: version CRC mismatch after reconstruction");
  }
  return header.version_length;
}

}  // namespace ipd
