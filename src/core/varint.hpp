// LEB128-style variable-length integer codec.
//
// The modern ("varint") codeword format of the delta codec stores offsets
// and lengths with this encoding; the paper-faithful byte format does not
// use it. Encoding is little-endian base-128 with the high bit of each
// byte as a continuation flag, identical to protobuf varints.
#pragma once

#include <cstdint>
#include <optional>

#include "core/types.hpp"

namespace ipd {

/// Maximum encoded size of a 64-bit varint.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Number of bytes encode_varint() will emit for `value`.
std::size_t varint_size(std::uint64_t value) noexcept;

/// Append the varint encoding of `value` to `out`.
void append_varint(Bytes& out, std::uint64_t value);

/// Encode `value` into `out` (must have room for kMaxVarintBytes).
/// Returns the number of bytes written.
std::size_t encode_varint(std::uint8_t* out, std::uint64_t value) noexcept;

/// Result of a varint decode: the value and the number of bytes consumed.
struct VarintResult {
  std::uint64_t value = 0;
  std::size_t consumed = 0;
};

/// Decode a varint from the front of `in`.
/// Throws FormatError on truncated or overlong (>10 byte) input.
VarintResult decode_varint(ByteView in);

/// Non-throwing decode; std::nullopt on truncated or overlong input.
/// Inline: the delta codeword decoder reads every Varint field with it.
inline std::optional<VarintResult> try_decode_varint(ByteView in) noexcept {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (std::size_t i = 0; i < in.size() && i < kMaxVarintBytes; ++i) {
    const std::uint8_t b = in[i];
    // The 10th byte may contribute only the final bit of a 64-bit value.
    if (i == kMaxVarintBytes - 1 && b > 1) {
      return std::nullopt;
    }
    value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      return VarintResult{value, i + 1};
    }
    shift += 7;
  }
  return std::nullopt;  // truncated or overlong
}

}  // namespace ipd
