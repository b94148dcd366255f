// Delta file serialization: codeword formats and the container format.
//
// Table 1 of the paper hinges on a codeword distinction:
//
//  * "Δ Compress, No Write Offsets"  — commands are applied in write order,
//    so `t` is implicit (add = <l>, copy = <f,l>). Densest, but the file
//    cannot be permuted, hence not in-place reconstructible.
//  * "Δ Compress, Write Offsets"     — every command carries `t`
//    (add = <t,l>, copy = <f,t,l>). ~1.9 % compression loss in the paper;
//    this is the format the in-place converter consumes and emits.
//
// Orthogonally we provide two codeword families:
//
//  * PaperByte — faithful to the encoder the paper borrowed from
//    Reichenberger [11] / Ajtai et al. [1]: fixed-width binary fields and a
//    single-byte add length (1..255), which is precisely the encoding
//    inefficiency §7 calls out ("many short add commands").
//  * Varint    — a modern LEB128 encoding of the same commands, provided as
//    the "redesign of the delta compression codewords" the paper suggests
//    would reduce the loss; benches quantify that claim.
//
// One decoder, probe-style, reads every codeword. parse_delta() runs it
// over a whole container into a table of CommandRefs that borrow the
// add bytes from the artifact instead of copying them, which is what
// the batch appliers execute. That table must not outlive the artifact
// bytes it was parsed from. The streaming decoder, and the container
// reader both streaming appliers run on it, borrow the same way;
// deserialize_delta() and probe_command() build owning Commands.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "core/types.hpp"
#include "delta/script.hpp"

namespace ipd {

enum class Codeword : std::uint8_t {
  kPaperByte = 0,  ///< fixed-width fields, 1-byte add length (paper §7)
  kVarint = 1,     ///< LEB128 fields, unbounded add length
};

enum class WriteOffsets : std::uint8_t {
  kImplicit = 0,  ///< `t` defined by the end of the previous command
  kExplicit = 1,  ///< `t` encoded in every codeword
};

struct DeltaFormat {
  Codeword codeword = Codeword::kPaperByte;
  WriteOffsets offsets = WriteOffsets::kExplicit;

  bool operator==(const DeltaFormat&) const noexcept = default;
};

/// The four named formats used across benches and docs.
inline constexpr DeltaFormat kPaperSequential{Codeword::kPaperByte,
                                              WriteOffsets::kImplicit};
inline constexpr DeltaFormat kPaperExplicit{Codeword::kPaperByte,
                                            WriteOffsets::kExplicit};
inline constexpr DeltaFormat kVarintSequential{Codeword::kVarint,
                                               WriteOffsets::kImplicit};
inline constexpr DeltaFormat kVarintExplicit{Codeword::kVarint,
                                             WriteOffsets::kExplicit};

const char* format_name(DeltaFormat f) noexcept;

/// A decoded delta file: header metadata plus the command script.
struct DeltaFile {
  DeltaFormat format;
  /// Producer's assertion that the script satisfies Equation 2 (no
  /// write-before-read conflicts) and may be applied in place.
  bool in_place = false;
  /// Secondary (LZSS) compression of the encoded payload — what real
  /// delta tools do by piping through a general compressor. Incompatible
  /// with the streaming applier, which cannot decompress incrementally;
  /// batch paths handle it transparently. The serializer silently falls
  /// back to uncompressed storage when compression would not shrink the
  /// payload, so after a round trip this flag reports what is actually
  /// on the wire.
  bool compress_payload = false;
  length_t reference_length = 0;
  length_t version_length = 0;
  /// CRC-32C of the version file the script materialises; lets a device
  /// verify a reconstruction before committing it.
  std::uint32_t version_crc = 0;
  Script script;
};

/// Serialize to the on-wire container (header + checksummed payload).
///
/// Implicit-offset formats require `file.script.in_write_order()`; a
/// permuted (in-place) script cannot drop its write offsets — throws
/// ValidationError, mirroring the paper's observation that in-place
/// reconstruction inherently pays for explicit offsets.
///
/// PaperByte adds longer than 255 bytes and copies of 4 GiB or more are
/// split into multiple commands, preserving the encoded version exactly.
Bytes serialize_delta(const DeltaFile& file);

/// Parse and verify a container produced by serialize_delta().
/// Throws FormatError on corruption (bad magic, checksum, truncation) and
/// ValidationError if the decoded script violates the §3 model.
DeltaFile deserialize_delta(ByteView data);

/// Container header fields, available before any payload byte arrives —
/// what a streaming consumer needs to provision its buffer.
struct DeltaHeader {
  DeltaFormat format;
  bool in_place = false;
  bool compress_payload = false;
  length_t reference_length = 0;
  length_t version_length = 0;
  std::uint32_t version_crc = 0;
  /// On-wire payload bytes (compressed size when compress_payload).
  std::uint64_t payload_length = 0;
  /// Decoded command-stream bytes (== payload_length when uncompressed).
  std::uint64_t payload_uncompressed = 0;
  std::uint32_t payload_adler = 0;
};

/// Try to parse the container header from the front of `data`.
/// Returns {header, bytes consumed} once enough bytes are present,
/// std::nullopt if more bytes are needed; throws FormatError on
/// malformed input (bad magic / unknown format byte).
std::optional<std::pair<DeltaHeader, std::size_t>> try_parse_header(
    ByteView data);

/// One decoded command, borrowed from the stream it was decoded from: a
/// copy reads `length` reference bytes at `from`; an add's `length`
/// literal bytes start at `literal`, inside the stream. Valid only while
/// that stream is alive.
struct CommandRef {
  offset_t to = 0;
  length_t length = 0;
  offset_t from = 0;                      ///< copy source offset
  const std::uint8_t* literal = nullptr;  ///< add bytes; null for a copy

  bool is_add() const noexcept { return literal != nullptr; }
  /// The owning Command (copies the add's bytes).
  Command to_command() const;
};

/// A container decoded into a flat table of borrowed commands, in stream
/// order. Adds point into the artifact's payload bytes, or into
/// `decompressed` when the payload is LZSS-compressed; so the table must
/// not outlive the artifact bytes passed to parse_delta(). Move-only:
/// moving keeps `decompressed`'s storage, copying would not.
struct ParsedDelta {
  DeltaHeader header;
  std::vector<CommandRef> commands;
  Bytes decompressed;

  ParsedDelta() = default;
  ParsedDelta(ParsedDelta&&) = default;
  ParsedDelta& operator=(ParsedDelta&&) = default;
};

/// Parse and verify a container without copying any add byte: the same
/// checks, in the same order and with the same exceptions, as
/// deserialize_delta(), which is this plus owning Commands.
ParsedDelta parse_delta(ByteView data);

/// Incremental command decoder for streaming consumers: feed payload
/// bytes as they arrive, pop commands as they complete. Malformed input
/// throws FormatError; incomplete input just returns nothing yet.
class StreamingCommandDecoder {
 public:
  StreamingCommandDecoder(DeltaFormat format, length_t version_length);

  /// Append payload bytes to the internal buffer.
  void feed(ByteView chunk);

  /// Decode the next complete command without copying it, or
  /// std::nullopt if the buffered bytes do not yet contain one. An add's
  /// literal points into the decoder's buffer: the CommandRef stays
  /// valid until the next feed().
  std::optional<CommandRef> next_ref();

  /// Bytes buffered but not yet consumed by a completed command.
  std::size_t buffered() const noexcept;
  /// Total payload bytes consumed by completed commands.
  std::uint64_t consumed() const noexcept { return consumed_; }
  /// The consumed bytes still buffered; they end at payload offset
  /// consumed() and include every byte consumed since the last feed().
  /// Valid until the next feed().
  ByteView consumed_bytes() const noexcept {
    return ByteView(pending_).first(pending_pos_);
  }

 private:
  DeltaFormat format_;
  unsigned offset_width_;
  offset_t running_to_ = 0;
  std::uint64_t consumed_ = 0;
  Bytes pending_;
  std::size_t pending_pos_ = 0;
};

/// Incremental reader of a whole container: the front end both streaming
/// appliers share (StreamingInplaceApplier in RAM, StreamingDeviceUpdater
/// on flash). Feed container bytes in any chunking and pull commands as
/// they complete. The reader owns every check that does not depend on
/// where the version is built:
///
///  * the header is buffered until it parses, then gated: a compressed
///    payload or a delta not flagged in-place throws ValidationError;
///  * a byte past the payload throws FormatError;
///  * the payload Adler-32 is folded lazily at command boundaries (each
///    byte is summed once, never over raw chunks), so adler_at() can give
///    a journal record the running value at any boundary;
///  * at the payload end, a partial command or an Adler-32 mismatch
///    throws FormatError; otherwise done() turns true.
class StreamingDeltaReader {
 public:
  /// Read a container from its first byte.
  StreamingDeltaReader() = default;

  /// Read a container from a command boundary `payload_offset` bytes into
  /// the payload whose raw header is `header_blob`, the running payload
  /// Adler-32 there being `adler`. Throws FormatError when the blob does
  /// not hold a whole header, and gates the header as feed() does.
  StreamingDeltaReader(ByteView header_blob, std::uint64_t payload_offset,
                       std::uint32_t adler);

  /// Append container bytes.
  void feed(ByteView chunk);

  /// The header, once enough bytes have arrived to parse it.
  const std::optional<DeltaHeader>& header() const noexcept {
    return header_;
  }
  /// The raw header bytes once it has parsed; before, every byte fed.
  ByteView header_blob() const noexcept { return head_; }

  /// Decode the next complete command, or std::nullopt when more bytes
  /// are needed or the payload is done. An add's literal borrows the
  /// reader's buffer: the CommandRef stays valid until the next feed().
  std::optional<CommandRef> next();

  /// Payload offset where the next command starts.
  std::uint64_t position() const noexcept {
    return base_ + (decoder_ ? decoder_->consumed() : 0);
  }
  /// Running payload Adler-32 at command boundary `payload_offset`, which
  /// must lie between the position at the last feed() and position().
  std::uint32_t adler_at(std::uint64_t payload_offset);

  /// True once every payload byte has been consumed by a complete
  /// command and the payload Adler-32 has verified.
  bool done() const noexcept { return done_; }

  /// Peak bytes held but not yet consumed (RAM accounting).
  std::size_t peak_buffered() const noexcept { return peak_buffered_; }

 private:
  void open(const DeltaHeader& header);
  void feed_payload(ByteView chunk);

  Bytes head_;  ///< raw header (every byte fed until it parses)
  std::optional<DeltaHeader> header_;
  std::optional<StreamingCommandDecoder> decoder_;
  std::uint64_t base_ = 0;  ///< payload offset the decoder started at
  std::uint64_t seen_ = 0;  ///< payload offset of the next byte fed
  std::uint64_t adler_pos_ = 0;  ///< payload offset adler_ is folded to
  std::uint32_t adler_ = 1;
  std::size_t peak_buffered_ = 0;
  bool done_ = false;
};

/// Outcome of probing one command at the front of a payload view — the
/// delta verifier's well-formedness primitive. Unlike the throwing
/// decoders above it never raises on bad input; instead it reports
/// *which* field failed and why, so a static analyzer can turn the
/// failure into a precise diagnostic ("add payload shorter than
/// declared", "copy length field truncated", ...).
struct CommandProbe {
  enum class Status : std::uint8_t {
    kOk = 0,         ///< one complete command decoded
    kTruncated = 1,  ///< stream ends mid-codeword (field named in detail)
    kMalformed = 2,  ///< invalid regardless of any further bytes
  };
  Status status = Status::kMalformed;
  std::optional<Command> command;  ///< set when kOk
  std::size_t consumed = 0;        ///< bytes this command occupies (kOk)
  std::string detail;              ///< empty when kOk; else the failure
};

/// Probe one command at the front of `data`. `running_to` supplies and
/// (only on kOk) receives the implicit write offset. Never throws.
CommandProbe probe_command(ByteView data, DeltaFormat format,
                           length_t version_length, offset_t& running_to);

/// Exact encoded payload size of one command under a format, given the
/// version length (which fixes the explicit-offset field width for
/// PaperByte). This is the paper's |command| used in the cycle-breaking
/// cost function: converting copy c to an add costs
///     add_size(t, l) - copy_size(c)   (≈ l - |f|).
class CodewordCostModel {
 public:
  CodewordCostModel(DeltaFormat format, length_t version_length) noexcept;

  /// Payload bytes to encode this copy (including opcode and offsets).
  std::size_t copy_size(const CopyCommand& c) const noexcept;

  /// Payload bytes to encode an add of `length` at `to` (opcode, offsets,
  /// length field, and the literal data itself).
  std::size_t add_size(offset_t to, length_t length) const noexcept;

  /// Bytes gained by the delta file when copy `c` is converted to an add
  /// (the paper's deletion cost, always >= 0 in practice; clamped at 1 so
  /// policies have a strictly positive cost to minimise).
  std::uint64_t conversion_cost(const CopyCommand& c) const noexcept;

  DeltaFormat format() const noexcept { return format_; }
  unsigned offset_width() const noexcept { return offset_width_; }

 private:
  DeltaFormat format_;
  unsigned offset_width_;  // PaperByte explicit `t` field width: 4 or 8
};

}  // namespace ipd
