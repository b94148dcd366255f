// Shared helpers for the ipdelta test suite.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/checksum.hpp"
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

/// FNV-1a over `bytes`: the checksum the byte pins compare against.
inline std::uint64_t fnv1a(ByteView bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// A differ min_match under which interleaved_history() defeats the
/// direct delta.
inline constexpr std::size_t kLongMatch = 256;

/// Release k+1 rewrites one byte in every 1536-byte block, at offset
/// k * (1536 / (releases - 1)) within it. Built with a differ whose
/// min_match is kLongMatch, a hop still copies nearly everything, while
/// release 0 and the last release share no kLongMatch run, so the direct
/// delta copies nothing and the chain of hops is far cheaper.
inline std::vector<Bytes> interleaved_history(std::size_t releases,
                                       std::uint64_t seed) {
  constexpr std::size_t kBlock = 1536;
  const std::size_t stride = kBlock / (releases - 1);
  Rng rng(seed);
  std::vector<Bytes> history{random_bytes(seed, 24 << 10)};
  for (std::size_t k = 0; k + 1 < releases; ++k) {
    Bytes next = history.back();
    for (std::size_t at = k * stride; at < next.size(); at += kBlock) {
      next[at] ^= static_cast<std::uint8_t>(rng.next() | 1);
    }
    history.push_back(std::move(next));
  }
  return history;
}

/// One hand-written command: a copy, or an add with its own bytes.
struct Fixture {
  CommandRef row;  ///< the add's `literal` is set when it joins a Script
  Bytes data;      ///< the add's bytes
};

/// Shorthand copy/add constructors.
inline Fixture C(offset_t from, offset_t to, length_t len) {
  return {{to, len, from}, {}};
}
inline Fixture A(offset_t to, Bytes data) {
  static constexpr std::uint8_t kAdd = 0;  // marks the row an add
  const length_t len = data.size();
  return {{to, len, 0, &kAdd}, std::move(data)};
}
inline Fixture A(offset_t to, std::string_view data) {
  return A(to, to_bytes(data));
}

/// Build a Script from fixtures; adds are copied into its arena.
inline Script script_of(std::initializer_list<Fixture> commands) {
  Script s;
  for (const Fixture& c : commands) {
    if (c.row.is_add()) {
      s.push_owned_add(c.row.to, c.data);
    } else {
      s.push(c.row);
    }
  }
  return s;
}

/// An add's bytes, copied out for comparison.
inline Bytes bytes_of(const CommandRef& c) {
  return Bytes(c.literal, c.literal + c.length);
}

/// Encode `script` under `header`; the encoder fills the payload fields.
inline Bytes encode(const DeltaHeader& header, const Script& script) {
  return serialize_delta(header, script.commands());
}

/// An uncompressed container around `payload` under `header`'s format,
/// flags and lengths, whose payload length and Adler-32 match it: what
/// the codeword decoders see when a test corrupts or cuts a payload.
inline Bytes wrap_payload(const DeltaHeader& header, ByteView payload) {
  ByteWriter w;
  w.write_string("IPD1");
  w.write_u8(static_cast<std::uint8_t>(
      (static_cast<unsigned>(header.format.codeword) << 4) |
      static_cast<unsigned>(header.format.offsets)));
  w.write_u8(header.in_place ? 1 : 0);
  w.write_varint(header.reference_length);
  w.write_varint(header.version_length);
  w.write_u32le(header.version_crc);
  w.write_varint(payload.size());
  w.write_u32le(adler32(payload));
  w.write_bytes(payload);
  return w.take();
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

/// Non-overlapping occurrences of `needle` in `text`.
inline std::size_t count_occurrences(const std::string& text,
                                     const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Gtest helper: `text`, a Prometheus-style exposition (obs/stats.hpp),
/// declares `series` exactly once with `type` ("counter" or "summary")
/// and carries exactly one sample line for it (a summary's _count line).
inline ::testing::AssertionResult exposes_once(const std::string& text,
                                               const std::string& series,
                                               const std::string& type) {
  const std::size_t types = count_occurrences(text, "# TYPE " + series + " ");
  const std::size_t typed =
      count_occurrences(text, "# TYPE " + series + " " + type + "\n");
  const std::string sample =
      "\n" + series + (type == "summary" ? "_count " : " ");
  const std::size_t samples = count_occurrences(text, sample);
  if (types != 1 || typed != 1 || samples != 1) {
    return ::testing::AssertionFailure()
           << series << ": " << types << " TYPE line(s), " << typed
           << " of type " << type << ", " << samples << " sample line(s)";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ipd::test
