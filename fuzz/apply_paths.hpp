// The two ways a batch apply can run a delta, side by side for the
// differential checks in fuzz_codec and test_codec:
//
//  * borrowed — apply_delta / apply_delta_inplace, which execute
//    parse_delta's command table as parse_delta bounded it;
//  * script   — the same table turned into a Script (no byte copied),
//    then the reference appliers apply_script / apply_inplace, with
//    their own per-command bounds checks and the same container checks
//    around them.
//
// Both must accept and reject alike, with the same exception type, and
// leave the same bytes behind. table_round_trips() is the encoder's
// check on the same table: parse, serialize_delta, parse again.
// streaming_disagreement() is the decoder's: StreamingCommandDecoder
// against decode_delta over the same payload.
#pragma once

#include <algorithm>
#include <span>
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

/// Encode a parsed table again under its header and parse that: true
/// when the header and the commands survive. The payload fields and the
/// LZSS flag describe one encoding, so only the header fields the
/// encoder takes as input are compared. A re-encoding that does not
/// parse throws.
inline bool table_round_trips(const ParsedDelta& first) {
  const Bytes again = serialize_delta(first.header, first.commands);
  const ParsedDelta second = parse_delta(again);
  const DeltaHeader& a = first.header;
  const DeltaHeader& b = second.header;
  return a.format == b.format && a.in_place == b.in_place &&
         a.reference_length == b.reference_length &&
         a.version_length == b.version_length &&
         a.version_crc == b.version_crc &&
         Script(first.commands) == Script(second.commands);
}

/// For a container that passes the header, container and Adler-32
/// checks: how StreamingCommandDecoder, fed decode_delta's codeword
/// stream in `chunk`-byte pieces, departs from decode_delta's outcome;
/// empty when it does not. It must yield the same rows, then, at a
/// codeword decode_delta refused, throw the same text after the same
/// row when the codeword is malformed, or wait with bytes buffered when
/// it is truncated. Other inputs are not compared.
inline std::string streaming_disagreement(ByteView input, std::size_t chunk) {
  ParsedDelta batch;
  const auto rejection = decode_delta(input, batch);
  if (rejection && rejection->kind != DeltaRejection::Kind::kCodeword) {
    return {};
  }
  const ByteView stream =
      batch.header.compress_payload
          ? ByteView(batch.decompressed)
          : input.last(static_cast<std::size_t>(batch.header.payload_length));
  StreamingCommandDecoder decoder(batch.header.format,
                                  batch.header.version_length);
  Script streamed;
  std::string thrown;
  try {
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      decoder.feed(stream.subspan(at, std::min(chunk, stream.size() - at)));
      while (const auto c = decoder.next_ref()) {
        // The literal lives only until the next feed(): keep a copy.
        if (c->is_add()) {
          streamed.push_owned_add(c->to, c->bytes());
        } else {
          streamed.push(*c);
        }
      }
    }
  } catch (const FormatError& e) {
    thrown = e.what();
  }
  if (!(streamed == Script(batch.commands))) {
    return "streamed " + std::to_string(streamed.size()) + " rows unlike " +
           "decode_delta's " + std::to_string(batch.commands.size());
  }
  if (!rejection) {
    if (!thrown.empty()) return "threw on an accepted stream: " + thrown;
    if (decoder.buffered() != 0) return "bytes left after the last row";
    return {};
  }
  const std::string& message = rejection->message;
  const bool truncated =
      message.find(" truncated: ") != std::string::npos ||
      message.starts_with("add payload shorter than declared");
  if (truncated) {
    if (!thrown.empty()) return "threw on a truncated codeword: " + thrown;
    if (decoder.buffered() == 0) return "a truncated codeword left no bytes";
    return {};
  }
  if (thrown != message) {
    return "threw \"" + thrown + "\" where decode_delta said \"" + message +
           "\"";
  }
  return {};
}

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

inline ApplyOutcome script_scratch(ByteView delta, ByteView reference) {
  ApplyOutcome out;
  out.error = error_type_of([&] {
    ParsedDelta parsed = parse_delta(delta);
    const DeltaHeader header = parsed.header;
    if (header.reference_length != reference.size()) {
      throw FormatError("reference length mismatch");
    }
    Bytes version = apply_script(Script(std::move(parsed)), reference);
    if (crc32c(version) != header.version_crc) {
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

inline ApplyOutcome script_inplace(ByteView delta, Bytes buffer) {
  ApplyOutcome out;
  out.error = error_type_of([&] {
    ParsedDelta parsed = parse_delta(delta);
    const DeltaHeader header = parsed.header;
    if (!header.in_place) {
      throw ValidationError("not marked in-place reconstructible");
    }
    if (header.reference_length > buffer.size() ||
        header.version_length > buffer.size()) {
      throw ValidationError("buffer too small");
    }
    apply_inplace(Script(std::move(parsed)), buffer,
                  header.reference_length, header.version_length);
    const auto version_size = static_cast<std::size_t>(header.version_length);
    if (crc32c(ByteView(buffer).first(version_size)) != header.version_crc) {
      throw FormatError("version CRC mismatch");
    }
    buffer.resize(version_size);
  });
  out.bytes = std::move(buffer);
  return out;
}

}  // namespace ipd::fuzzcorpus
