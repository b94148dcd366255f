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
// A delta has one decoded form: a table of CommandRefs (delta/command.hpp)
// that borrow the add bytes instead of copying them. One decoder,
// probe-style, reads every codeword: it neither allocates nor throws on a
// codeword that decodes, reads each field straight from the bytes once
// they are known to be present, and builds a failure's message only
// once a codeword has failed. decode_delta() runs it over a whole
// container into that table (one obs `decode` span per call), which is
// what parse_delta(), so the batch appliers, both device updaters and
// the store's chain reconstruct, and the static Verifier run on; the
// table must not outlive the artifact bytes it was parsed from. The
// streaming decoder runs the same decoder one codeword at a time; it,
// and the container reader both streaming appliers run on it, borrow the
// same way. serialize_delta() encodes the same table, which is what a Script
// is (delta/script.hpp); Script(std::move(parsed)) turns a parsed table
// into one without copying.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
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

/// Container header fields, available before any payload byte arrives —
/// what a streaming consumer needs to provision its buffer.
struct DeltaHeader {
  DeltaFormat format;
  /// Producer's assertion that the commands satisfy Equation 2 (no
  /// write-before-read conflicts) and may be applied in place.
  bool in_place = false;
  /// Secondary (LZSS) compression of the encoded payload — what real
  /// delta tools do by piping through a general compressor. Incompatible
  /// with the streaming applier, which cannot decompress incrementally;
  /// batch paths handle it transparently. The encoder falls back to
  /// uncompressed storage when compression would not shrink the payload,
  /// so a parsed header reports what is actually on the wire.
  bool compress_payload = false;
  length_t reference_length = 0;
  length_t version_length = 0;
  /// CRC-32C of the version file the commands materialise; lets a device
  /// verify a reconstruction before committing it.
  std::uint32_t version_crc = 0;
  /// On-wire payload bytes (compressed size when compress_payload).
  std::uint64_t payload_length = 0;
  /// Decoded command-stream bytes (== payload_length when uncompressed).
  std::uint64_t payload_uncompressed = 0;
  std::uint32_t payload_adler = 0;
};

/// Encode `commands` into the on-wire container (header + checksummed
/// payload). The `payload_*` fields of `header` are outputs: the encoder
/// computes them and ignores what the caller put there.
///
/// Implicit-offset formats require the commands in write order with no
/// gaps; a permuted (in-place) table cannot drop its write offsets —
/// throws ValidationError, mirroring the paper's observation that
/// in-place reconstruction inherently pays for explicit offsets.
///
/// PaperByte adds longer than 255 bytes and copies of 4 GiB or more are
/// split into multiple commands, preserving the encoded version exactly.
Bytes serialize_delta(const DeltaHeader& header,
                      std::span<const CommandRef> commands);

/// Try to parse the container header from the front of `data`.
/// Returns {header, bytes consumed} once enough bytes are present,
/// std::nullopt if more bytes are needed; throws FormatError on
/// malformed input (bad magic / unknown format byte).
std::optional<std::pair<DeltaHeader, std::size_t>> try_parse_header(
    ByteView data);

/// A container decoded into a flat table of borrowed commands, in stream
/// order. Adds point into the artifact's payload bytes, or into
/// `decompressed` when the payload is LZSS-compressed; so the table must
/// not outlive the artifact bytes passed to parse_delta(). Move-only:
/// moving keeps `decompressed`'s storage, copying would not.
struct ParsedDelta {
  DeltaHeader header;
  std::vector<CommandRef> commands;
  Bytes decompressed;
  /// The writes in offset order, as check_delta_model() found them;
  /// empty when `commands` already are in offset order.
  std::vector<KeyedWrite> write_order;

  ParsedDelta() = default;
  ParsedDelta(ParsedDelta&&) = default;
  ParsedDelta& operator=(ParsedDelta&&) = default;

  /// Heap bytes the table holds beyond the artifact: the storage of its
  /// commands and of the decompressed payload.
  std::size_t table_bytes() const noexcept {
    return commands.capacity() * sizeof(CommandRef) + decompressed.capacity();
  }
};

/// Why decode_delta() stopped reading a container.
struct DeltaRejection {
  enum class Kind : std::uint8_t {
    kHeader = 0,     ///< bad magic, format or flags byte, or truncated
    kContainer = 1,  ///< payload length vs. bytes present
    kPayload = 2,    ///< checksum, declared size or decompression fault
    kCodeword = 3,   ///< codeword `command` is malformed or truncated
  };
  Kind kind = Kind::kHeader;
  std::string message;
  /// Index of the codeword that failed (kCodeword); the ones before it
  /// decoded.
  std::size_t command = 0;
};

/// The decode step of parse_delta(): the container checks and every
/// codeword, no §3 model check. Never throws on bad input. Fills `out`
/// as far as it gets (the header unless the rejection is kHeader, the
/// commands before a bad codeword) and returns the rejection, or
/// std::nullopt once every codeword decoded. A compressed payload that
/// declares more than `max_payload_bytes` decoded bytes is refused
/// before anything is allocated for it.
std::optional<DeltaRejection> decode_delta(
    ByteView data, ParsedDelta& out,
    std::uint64_t max_payload_bytes = UINT64_MAX);

/// The model check of parse_delta(): check_command_table against the
/// header's lengths, whose order it keeps in `parsed.write_order`.
/// Throws ValidationError on the first violation.
void check_delta_model(ParsedDelta& parsed);

/// Parse and verify a container without copying any add byte:
/// decode_delta(), whose rejection it throws as FormatError, then
/// check_delta_model().
ParsedDelta parse_delta(ByteView data);

/// One violation of the paper's Equation 2: copy `reader` reads
/// `overlap`, bytes the earlier command `writer` wrote.
struct WriteBeforeRead {
  std::size_t reader = 0;
  std::size_t writer = 0;
  Interval overlap;
};

/// Equation 2 over a command table with pairwise-disjoint writes, given
/// their offset order as sort_by_offset() or check_write_tiling()
/// returns it (empty: the table already is in offset order). Merges the
/// copies' reads, radix-sorted by offset, against the writes, and calls
/// `visit` for each (reader, earlier writer, overlap) in offset order
/// until it returns false. Returns the number of conflicts visited: 0
/// iff the table can be applied in place in its order. Linear after the
/// sort, plus the writes each read overlaps; a copy overlapping its own
/// write is legal (§4.1).
std::size_t scan_equation2(
    std::span<const CommandRef> commands,
    std::span<const KeyedWrite> write_order,
    const std::function<bool(const WriteBeforeRead&)>& visit);

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
