#include "core/varint.hpp"

namespace ipd {

std::size_t varint_size(std::uint64_t value) noexcept {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

std::size_t encode_varint(std::uint8_t* out, std::uint64_t value) noexcept {
  std::size_t n = 0;
  while (value >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(value | 0x80);
    value >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(value);
  return n;
}

void append_varint(Bytes& out, std::uint64_t value) {
  std::uint8_t buf[kMaxVarintBytes];
  const std::size_t n = encode_varint(buf, value);
  out.insert(out.end(), buf, buf + n);
}

VarintResult decode_varint(ByteView in) {
  if (auto r = try_decode_varint(in)) {
    return *r;
  }
  throw FormatError("varint: truncated or overlong encoding");
}

}  // namespace ipd
