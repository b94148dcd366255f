// Shared helpers for the ipdelta test suite.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "delta/codec.hpp"
#include "delta/script.hpp"

namespace ipd::test {

/// Deterministic random buffer.
inline Bytes random_bytes(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  Bytes out(size);
  rng.fill(out);
  return out;
}

/// Buffer of `size` filled with a repeating 0..255 ramp — handy when a
/// test failure needs recognisable content.
inline Bytes ramp_bytes(std::size_t size) {
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(i & 0xFF);
  }
  return out;
}

/// Shorthand copy/add constructors.
inline Command C(offset_t from, offset_t to, length_t len) {
  return CopyCommand{from, to, len};
}
inline Command A(offset_t to, std::string_view data) {
  return AddCommand{to, to_bytes(data)};
}
inline Command A(offset_t to, Bytes data) {
  return AddCommand{to, std::move(data)};
}

/// Build a Script from an initializer list of commands.
inline Script script_of(std::initializer_list<Command> commands) {
  Script s;
  for (const Command& c : commands) {
    s.push(c);
  }
  return s;
}

/// Encode `script` under `header`; the encoder fills the payload fields.
inline Bytes encode(const DeltaHeader& header, const Script& script) {
  return serialize_delta(header, command_table(script));
}

/// The owning form of one table row (copies an add's bytes).
inline Command owning_command(const CommandRef& c) {
  if (c.is_add()) {
    return AddCommand{c.to, Bytes(c.literal, c.literal + c.length)};
  }
  return CopyCommand{c.from, c.to, c.length};
}

/// An owning Script with a table's commands.
inline Script owning_script(std::span<const CommandRef> table) {
  Script script;
  for (const CommandRef& c : table) {
    script.push(owning_command(c));
  }
  return script;
}

/// The commands a delta encodes, as an owning Script.
inline Script decode_script(ByteView delta) {
  return owning_script(parse_delta(delta).commands);
}

/// An in-place-safe script whose copies read past its version: a
/// 48 KiB reference becomes a 16,000-byte version. Command 0 reads
/// [40000, 44000), wholly past the version; command 1 reads
/// [14000, 18000), across its end, before command 2 writes [8000, 16000).
struct PastVersionCase {
  Bytes reference;
  Bytes version;
  Script script;
};

inline PastVersionCase reads_past_version() {
  PastVersionCase c;
  c.reference = random_bytes(77, 48 << 10);
  const Bytes literal = random_bytes(78, 8000);
  c.script = script_of({C(40000, 0, 4000), C(14000, 4000, 4000),
                        A(8000, literal)});
  const auto at = [&c](std::size_t from) {
    return c.reference.begin() + static_cast<std::ptrdiff_t>(from);
  };
  c.version.assign(at(40000), at(44000));
  c.version.insert(c.version.end(), at(14000), at(18000));
  c.version.insert(c.version.end(), literal.begin(), literal.end());
  return c;
}

/// Gtest helper: assert two byte buffers equal with a useful message.
inline ::testing::AssertionResult bytes_equal(ByteView expected,
                                              ByteView actual) {
  if (expected.size() != actual.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: expected " << expected.size() << ", got "
           << actual.size();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i] != actual[i]) {
      return ::testing::AssertionFailure()
             << "byte " << i << " differs: expected "
             << static_cast<int>(expected[i]) << ", got "
             << static_cast<int>(actual[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ipd::test
