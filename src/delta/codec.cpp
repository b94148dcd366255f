#include "delta/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/buffer.hpp"
#include "core/checksum.hpp"
#include "core/lzss.hpp"
#include "core/varint.hpp"
#include "obs/trace.hpp"

namespace ipd {
namespace {

constexpr char kMagic[4] = {'I', 'P', 'D', '1'};

// PaperByte opcodes.
constexpr std::uint8_t kOpAdd = 0x01;
constexpr std::uint8_t kOpCopyBase = 0x10;  // + f_class*3 + l_class
// Varint opcodes.
constexpr std::uint8_t kOpVarAdd = 0x01;
constexpr std::uint8_t kOpVarCopy = 0x02;

constexpr length_t kPaperMaxAdd = 255;
constexpr length_t kPaperMaxCopy = 0xFFFFFFFFull;

// decode_delta's largest up-front table reservation: 1 MiB of rows.
constexpr std::uint64_t kReservedRowsMax = (1 << 20) / sizeof(CommandRef);

// Width classes for PaperByte copy fields: f in {2,4,8}, l in {1,2,4}.
unsigned f_class(offset_t f) noexcept {
  if (f <= 0xFFFF) return 0;
  if (f <= 0xFFFFFFFFull) return 1;
  return 2;
}
unsigned f_width(unsigned cls) noexcept { return cls == 0 ? 2u : cls == 1 ? 4u : 8u; }

unsigned l_class(length_t l) noexcept {
  if (l <= 0xFF) return 0;
  if (l <= 0xFFFF) return 1;
  return 2;
}
unsigned l_width(unsigned cls) noexcept { return cls == 0 ? 1u : cls == 1 ? 2u : 4u; }

void write_fixed(ByteWriter& w, std::uint64_t v, unsigned width) {
  switch (width) {
    case 1: w.write_u8(static_cast<std::uint8_t>(v)); break;
    case 2: w.write_u16le(static_cast<std::uint16_t>(v)); break;
    case 4: w.write_u32le(static_cast<std::uint32_t>(v)); break;
    default: w.write_u64le(v); break;
  }
}

unsigned paper_offset_width(length_t version_length) noexcept {
  return version_length <= 0xFFFFFFFFull ? 4u : 8u;
}

class PayloadEncoder {
 public:
  PayloadEncoder(DeltaFormat fmt, unsigned offset_width)
      : fmt_(fmt), offset_width_(offset_width) {}

  void encode(ByteWriter& w, const CommandRef& cmd) {
    if (cmd.is_add()) {
      encode_add(w, cmd.to,
                 ByteView(cmd.literal, static_cast<std::size_t>(cmd.length)));
    } else {
      encode_copy(w, CopyCommand{cmd.from, cmd.to, cmd.length});
    }
  }

 private:
  bool explicit_offsets() const noexcept {
    return fmt_.offsets == WriteOffsets::kExplicit;
  }

  void encode_copy(ByteWriter& w, const CopyCommand& c) {
    // Split copies whose length exceeds the PaperByte 4-byte length field.
    CopyCommand rest = c;
    while (rest.length > 0) {
      const length_t chunk =
          fmt_.codeword == Codeword::kPaperByte
              ? std::min(rest.length, kPaperMaxCopy)
              : rest.length;
      emit_copy_chunk(w, CopyCommand{rest.from, rest.to, chunk});
      rest.from += chunk;
      rest.to += chunk;
      rest.length -= chunk;
    }
  }

  void emit_copy_chunk(ByteWriter& w, const CopyCommand& c) {
    if (fmt_.codeword == Codeword::kPaperByte) {
      const unsigned fc = f_class(c.from);
      const unsigned lc = l_class(c.length);
      w.write_u8(static_cast<std::uint8_t>(kOpCopyBase + fc * 3 + lc));
      if (explicit_offsets()) write_fixed(w, c.to, offset_width_);
      write_fixed(w, c.from, f_width(fc));
      write_fixed(w, c.length, l_width(lc));
    } else {
      w.write_u8(kOpVarCopy);
      if (explicit_offsets()) w.write_varint(c.to);
      w.write_varint(c.from);
      w.write_varint(c.length);
    }
  }

  void encode_add(ByteWriter& w, offset_t to, ByteView data) {
    if (fmt_.codeword == Codeword::kVarint) {
      w.write_u8(kOpVarAdd);
      if (explicit_offsets()) w.write_varint(to);
      w.write_varint(data.size());
      w.write_bytes(data);
      return;
    }
    // PaperByte: single-byte length, so long adds split into <=255-byte
    // chunks — the encoding inefficiency §7 of the paper discusses.
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(kPaperMaxAdd, data.size() - pos);
      w.write_u8(kOpAdd);
      if (explicit_offsets()) write_fixed(w, to, offset_width_);
      w.write_u8(static_cast<std::uint8_t>(chunk));
      w.write_bytes(data.subspan(pos, chunk));
      pos += chunk;
      to += chunk;
    }
  }

  DeltaFormat fmt_;
  unsigned offset_width_;
};

/// One codeword decoded without allocating: on kOk the borrowed command
/// and its encoded size. Any other status says what failed, and
/// fault_text() turns it into the message: the stream ends mid-codeword
/// (truncated()), or no further bytes could make it valid.
struct Decoded {
  enum class Status : std::uint8_t {
    kOk,
    kFieldTruncated,    ///< the stream ends inside `field`
    kLiteralTruncated,  ///< ... inside the add's literal
    kUnknownOpcode,
    kOverlongVarint,
    kZeroLength,
  };
  Status status = Status::kOk;
  const char* field = nullptr;  ///< kFieldTruncated: the field's name
  /// The command; on kLiteralTruncated, the add's fields.
  CommandRef command;
  /// Encoded size on kOk; on kLiteralTruncated, where the literal starts.
  std::size_t consumed = 0;

  bool truncated() const noexcept {
    return status == Status::kFieldTruncated ||
           status == Status::kLiteralTruncated;
  }
};

/// A little-endian PaperByte field of sizeof(T) bytes: one load on a
/// little-endian host.
template <typename T>
std::uint64_t load_le(const std::uint8_t* p) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    std::uint64_t v = 0;
    for (std::size_t i = sizeof(T); i > 0; --i) v = (v << 8) | p[i - 1];
    return v;
  }
}

/// A `width`-byte (1, 2, 4 or 8) little-endian PaperByte field.
[[gnu::always_inline]] inline std::uint64_t load_le(const std::uint8_t* p,
                                                    unsigned width) noexcept {
  switch (width) {
    case 1: return p[0];
    case 2: return load_le<std::uint16_t>(p);
    case 4: return load_le<std::uint32_t>(p);
    default: return load_le<std::uint64_t>(p);
  }
}

/// One Varint field at data[pos]: kOk with `pos` past it, else
/// kFieldTruncated, or kOverlongVarint when no further byte could end it.
[[gnu::always_inline]] inline Decoded::Status read_varint(
    ByteView data, std::size_t& pos, std::uint64_t& v) noexcept {
  const auto r = try_decode_varint(data.subspan(pos));
  if (!r) {
    return data.size() - pos >= kMaxVarintBytes
               ? Decoded::Status::kOverlongVarint
               : Decoded::Status::kFieldTruncated;
  }
  v = r->value;
  pos += r->consumed;
  return Decoded::Status::kOk;
}

// Cursor for the container header: every read reports "not enough bytes
// yet" instead of failing, so streaming callers can tell incomplete from
// malformed.
class TryReader {
 public:
  explicit TryReader(ByteView data) noexcept : data_(data) {}

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  bool u8(std::uint8_t& out) noexcept {
    if (remaining() < 1) return false;
    out = data_[pos_++];
    return true;
  }

  bool fixed(unsigned width, std::uint64_t& out) noexcept {
    if (remaining() < width) return false;
    out = load_le(data_.data() + pos_, width);
    pos_ += width;
    return true;
  }

  /// False when truncated; throws FormatError when definitely malformed
  /// (overlong encoding that no further bytes could fix).
  bool varint(std::uint64_t& out) {
    const Decoded::Status status = read_varint(data_, pos_, out);
    if (status == Decoded::Status::kOverlongVarint) {
      throw FormatError("malformed varint in delta stream");
    }
    return status == Decoded::Status::kOk;
  }

  bool bytes(std::uint64_t n, ByteView& out) noexcept {
    if (remaining() < n) return false;
    out = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return true;
  }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

/// The codeword decoder: every entry point below wraps it. It never
/// throws or allocates, reads each field straight from `data` once its
/// bytes are known to be there, and commits `running_to` (the implicit
/// write offset) only on kOk, so a truncated probe can be retried after
/// more bytes arrive.
[[gnu::always_inline]] inline Decoded probe_impl(
    ByteView data, DeltaFormat fmt, unsigned offset_width,
    offset_t& running_to) noexcept {
  using Status = Decoded::Status;
  Decoded out;
  if (data.empty()) {
    out.status = Status::kFieldTruncated;
    out.field = "opcode";
    return out;
  }
  const std::uint8_t* const p = data.data();
  const std::uint8_t op = p[0];
  const bool explicit_to = fmt.offsets == WriteOffsets::kExplicit;
  CommandRef& c = out.command;
  c.to = running_to;
  std::size_t pos = 1;
  bool add = false;
  if (fmt.codeword == Codeword::kPaperByte) {
    add = op == kOpAdd;
    const unsigned cls = static_cast<unsigned>(op) - kOpCopyBase;
    if (!add && cls >= 9) {
      out.status = Status::kUnknownOpcode;
      return out;
    }
    const unsigned to_width = explicit_to ? offset_width : 0;
    const unsigned from_width = add ? 0 : f_width(cls / 3);
    const unsigned length_width = add ? 1 : l_width(cls % 3);
    if (data.size() < 1 + to_width + from_width + length_width) {
      // Name the first field whose bytes run out.
      out.status = Status::kFieldTruncated;
      out.field = data.size() < 1 + to_width
                      ? (add ? "add write offset" : "copy write offset")
                  : data.size() < 1 + to_width + from_width
                      ? "copy source offset"
                      : (add ? "add length" : "copy length");
      return out;
    }
    if (explicit_to) c.to = load_le(p + pos, to_width);
    pos += to_width;
    if (!add) c.from = load_le(p + pos, from_width);
    pos += from_width;
    c.length = load_le(p + pos, length_width);
    pos += length_width;
  } else {
    add = op == kOpVarAdd;
    if (!add && op != kOpVarCopy) {
      out.status = Status::kUnknownOpcode;
      return out;
    }
    // Fields in codeword order; the first that fails is reported.
    Status status = Status::kOk;
    if (explicit_to) {
      status = read_varint(data, pos, c.to);
      out.field = add ? "add write offset" : "copy write offset";
    }
    if (status == Status::kOk && !add) {
      status = read_varint(data, pos, c.from);
      out.field = "copy source offset";
    }
    if (status == Status::kOk) {
      status = read_varint(data, pos, c.length);
      out.field = add ? "add length" : "copy length";
    }
    if (status != Status::kOk) {
      out.status = status;
      return out;
    }
  }
  if (c.length == 0) {
    out.status = Status::kZeroLength;
    return out;
  }
  if (add) {
    if (data.size() - pos < c.length) {
      out.status = Status::kLiteralTruncated;
      out.consumed = pos;
      return out;
    }
    c.literal = p + pos;
    pos += static_cast<std::size_t>(c.length);
  }
  out.consumed = pos;
  running_to = c.to + c.length;
  return out;
}

/// The message for a codeword probe_impl() refused at the front of
/// `data`. Cold: built only once a codeword has failed.
[[gnu::cold, gnu::noinline]] std::string fault_text(const Decoded& decoded,
                                                    ByteView data,
                                                    Codeword codeword) {
  using Status = Decoded::Status;
  const bool paper = codeword == Codeword::kPaperByte;
  switch (decoded.status) {
    case Status::kFieldTruncated:
      return std::string(decoded.field) +
             " truncated: stream ends mid-codeword";
    case Status::kLiteralTruncated:
      return "add payload shorter than declared: need " +
             std::to_string(decoded.command.length) + " bytes, have " +
             std::to_string(data.size() - decoded.consumed);
    case Status::kUnknownOpcode:
      return std::string(paper ? "unknown PaperByte" : "unknown Varint") +
             " opcode " + std::to_string(data[0]);
    case Status::kOverlongVarint:
      return "malformed varint in delta stream";
    case Status::kZeroLength:
      return std::string(data[0] == (paper ? kOpAdd : kOpVarAdd) ? "add"
                                                                 : "copy") +
             " command with zero length";
    case Status::kOk:
      break;
  }
  return {};
}

}  // namespace

std::optional<std::pair<DeltaHeader, std::size_t>> try_parse_header(
    ByteView data) {
  TryReader r(data);
  ByteView magic;
  if (!r.bytes(4, magic)) return std::nullopt;
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    throw FormatError("bad magic: not an ipdelta file");
  }
  std::uint8_t fmt_byte = 0, flags = 0;
  if (!r.u8(fmt_byte) || !r.u8(flags)) return std::nullopt;
  const unsigned cw = fmt_byte >> 4;
  const unsigned off = fmt_byte & 0x0F;
  if (cw > 1 || off > 1) {
    throw FormatError("unknown format byte " + std::to_string(fmt_byte));
  }
  if (flags > 3) {
    throw FormatError("unknown flags byte " + std::to_string(flags));
  }
  DeltaHeader header;
  header.format = DeltaFormat{static_cast<Codeword>(cw),
                              static_cast<WriteOffsets>(off)};
  header.in_place = (flags & 1) != 0;
  header.compress_payload = (flags & 2) != 0;
  std::uint64_t crc = 0, adler = 0;
  if (!r.varint(header.reference_length) ||
      !r.varint(header.version_length) || !r.fixed(4, crc) ||
      !r.varint(header.payload_length)) {
    return std::nullopt;
  }
  if (header.compress_payload) {
    if (!r.varint(header.payload_uncompressed)) return std::nullopt;
  } else {
    header.payload_uncompressed = header.payload_length;
  }
  if (!r.fixed(4, adler)) return std::nullopt;
  header.version_crc = static_cast<std::uint32_t>(crc);
  header.payload_adler = static_cast<std::uint32_t>(adler);
  return std::make_pair(header, r.position());
}

StreamingCommandDecoder::StreamingCommandDecoder(DeltaFormat format,
                                                 length_t version_length)
    : format_(format), offset_width_(paper_offset_width(version_length)) {}

void StreamingCommandDecoder::feed(ByteView chunk) {
  // Compact the consumed prefix before growing the buffer.
  if (pending_pos_ > 0 && pending_pos_ >= pending_.size() / 2) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(pending_pos_));
    pending_pos_ = 0;
  }
  pending_.insert(pending_.end(), chunk.begin(), chunk.end());
}

std::optional<CommandRef> StreamingCommandDecoder::next_ref() {
  const ByteView avail = ByteView(pending_).subspan(pending_pos_);
  if (avail.empty()) return std::nullopt;
  const Decoded decoded =
      probe_impl(avail, format_, offset_width_, running_to_);
  if (decoded.status != Decoded::Status::kOk) {
    if (decoded.truncated()) return std::nullopt;
    throw FormatError(fault_text(decoded, avail, format_.codeword));
  }
  pending_pos_ += decoded.consumed;
  consumed_ += decoded.consumed;
  return decoded.command;
}

std::size_t StreamingCommandDecoder::buffered() const noexcept {
  return pending_.size() - pending_pos_;
}

StreamingDeltaReader::StreamingDeltaReader(ByteView header_blob,
                                           std::uint64_t payload_offset,
                                           std::uint32_t adler)
    : base_(payload_offset),
      seen_(payload_offset),
      adler_pos_(payload_offset),
      adler_(adler) {
  const auto parsed = try_parse_header(header_blob);
  if (!parsed) {
    throw FormatError("delta stream: header is truncated");
  }
  head_.assign(header_blob.begin(),
               header_blob.begin() +
                   static_cast<std::ptrdiff_t>(parsed->second));
  open(parsed->first);
}

void StreamingDeltaReader::open(const DeltaHeader& header) {
  header_ = header;
  if (header.compress_payload) {
    throw ValidationError(
        "delta stream: compressed payloads cannot be applied "
        "incrementally; ship uncompressed or use a batch path");
  }
  if (!header.in_place) {
    throw ValidationError(
        "delta stream: delta is not marked in-place reconstructible");
  }
  decoder_.emplace(header.format, header.version_length);
}

void StreamingDeltaReader::feed(ByteView chunk) {
  if (header_) {
    feed_payload(chunk);
    return;
  }
  head_.insert(head_.end(), chunk.begin(), chunk.end());
  peak_buffered_ = std::max(peak_buffered_, head_.size());
  const auto parsed = try_parse_header(head_);
  if (!parsed) {
    return;  // need more bytes
  }
  open(parsed->first);
  // Bytes past the header start the payload; keep only the header.
  feed_payload(ByteView(head_).subspan(parsed->second));
  head_.resize(parsed->second);
  head_.shrink_to_fit();
}

void StreamingDeltaReader::feed_payload(ByteView chunk) {
  if (seen_ + chunk.size() > header_->payload_length) {
    throw FormatError("delta stream: trailing garbage after payload");
  }
  // The decoder may compact its consumed bytes away: fold them in first.
  adler_at(position());
  decoder_->feed(chunk);
  seen_ += chunk.size();
}

std::optional<CommandRef> StreamingDeltaReader::next() {
  if (!decoder_ || done_) {
    return std::nullopt;
  }
  if (std::optional<CommandRef> command = decoder_->next_ref()) {
    return command;
  }
  peak_buffered_ = std::max(peak_buffered_, decoder_->buffered());
  if (seen_ == header_->payload_length) {
    if (decoder_->buffered() != 0) {
      throw FormatError("delta stream: payload ends inside a command");
    }
    if (header_->payload_length > 0 &&
        adler_at(seen_) != header_->payload_adler) {
      throw FormatError("delta stream: payload checksum mismatch");
    }
    done_ = true;
  }
  return std::nullopt;
}

std::uint32_t StreamingDeltaReader::adler_at(std::uint64_t payload_offset) {
  if (payload_offset > adler_pos_) {
    // Every byte consumed since the last feed() is still buffered.
    const ByteView held = decoder_->consumed_bytes();
    const std::uint64_t held_end = position();
    if (adler_pos_ + held.size() < held_end || payload_offset > held_end) {
      throw ValidationError("delta stream: checksum fold out of range");
    }
    const std::size_t from =
        held.size() - static_cast<std::size_t>(held_end - adler_pos_);
    adler_ = adler32(held.subspan(from, static_cast<std::size_t>(
                                            payload_offset - adler_pos_)),
                     adler_);
    adler_pos_ = payload_offset;
  }
  return adler_;
}

const char* format_name(DeltaFormat f) noexcept {
  if (f == kPaperSequential) return "paper/no-write-offsets";
  if (f == kPaperExplicit) return "paper/write-offsets";
  if (f == kVarintSequential) return "varint/no-write-offsets";
  return "varint/write-offsets";
}

Bytes serialize_delta(const DeltaHeader& header,
                      std::span<const CommandRef> commands) {
  if (header.format.offsets == WriteOffsets::kImplicit &&
      !in_write_order(commands)) {
    throw ValidationError(
        "implicit-offset format requires commands in write order with no "
        "gaps; permuted (in-place) scripts need explicit write offsets");
  }

  const unsigned offw = paper_offset_width(header.version_length);
  PayloadEncoder enc(header.format, offw);
  ByteWriter payload;
  for (const CommandRef& c : commands) {
    enc.encode(payload, c);
  }
  Bytes body = payload.take();
  const std::size_t uncompressed = body.size();
  bool compressed = header.compress_payload;
  if (compressed) {
    Bytes packed = lzss_encode(body);
    // Auto-fallback: store uncompressed when compression does not pay
    // (tiny or copy-dominated payloads), so requesting compression never
    // grows the file.
    if (packed.size() + varint_size(uncompressed) < body.size()) {
      body = std::move(packed);
    } else {
      compressed = false;
    }
  }

  ByteWriter w;
  w.write_string(std::string_view(kMagic, 4));
  w.write_u8(static_cast<std::uint8_t>(
      (static_cast<unsigned>(header.format.codeword) << 4) |
      static_cast<unsigned>(header.format.offsets)));
  w.write_u8(static_cast<std::uint8_t>((header.in_place ? 1 : 0) |
                                       (compressed ? 2 : 0)));
  w.write_varint(header.reference_length);
  w.write_varint(header.version_length);
  w.write_u32le(header.version_crc);
  w.write_varint(body.size());
  if (compressed) {
    w.write_varint(uncompressed);
  }
  w.write_u32le(adler32(body));
  w.write_bytes(body);
  return w.take();
}

std::optional<DeltaRejection> decode_delta(ByteView data, ParsedDelta& out,
                                           std::uint64_t max_payload_bytes) {
  using Kind = DeltaRejection::Kind;
  obs::Span span(obs::Stage::kDecode, data.size());
  std::optional<std::pair<DeltaHeader, std::size_t>> parsed;
  try {
    parsed = try_parse_header(data);
  } catch (const FormatError& e) {
    return DeltaRejection{Kind::kHeader, e.what()};
  }
  if (!parsed) {
    return DeltaRejection{Kind::kHeader, "truncated delta header"};
  }
  out.header = parsed->first;
  const DeltaHeader& header = out.header;
  const std::size_t header_bytes = parsed->second;

  if (header.payload_length > data.size() - header_bytes) {
    return DeltaRejection{
        Kind::kContainer,
        "payload truncated: header declares " +
            std::to_string(header.payload_length) + " bytes, " +
            std::to_string(data.size() - header_bytes) + " present"};
  }
  if (header_bytes + header.payload_length != data.size()) {
    return DeltaRejection{Kind::kContainer, "trailing garbage after payload"};
  }
  const ByteView payload = data.subspan(
      header_bytes, static_cast<std::size_t>(header.payload_length));
  if (adler32(payload) != header.payload_adler) {
    return DeltaRejection{Kind::kPayload, "payload checksum mismatch"};
  }

  ByteView stream = payload;
  if (header.compress_payload) {
    if (header.payload_uncompressed > max_payload_bytes) {
      return DeltaRejection{
          Kind::kPayload,
          "declared uncompressed payload of " +
              std::to_string(header.payload_uncompressed) +
              " bytes exceeds the " + std::to_string(max_payload_bytes) +
              "-byte limit"};
    }
    try {
      out.decompressed = lzss_decode(
          payload, static_cast<std::size_t>(header.payload_uncompressed));
    } catch (const Error& e) {
      return DeltaRejection{Kind::kPayload, e.what()};
    }
    stream = out.decompressed;
  }

  // Reserve the worst case (a codeword per 3 stream bytes, ~8x the rows
  // of a typical artifact), but no more than 1 MiB of rows: a larger
  // reservation maps fresh pages on every parse, while a table that
  // outgrows it grows in heap memory earlier parses warmed. The table is
  // trimmed to its size once decoded.
  out.commands.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      {stream.size() / 3, header.version_length, kReservedRowsMax})));
  const unsigned offset_width = paper_offset_width(header.version_length);
  offset_t running_to = 0;
  for (std::size_t pos = 0; pos < stream.size();) {
    const ByteView rest = stream.subspan(pos);
    const Decoded decoded =
        probe_impl(rest, header.format, offset_width, running_to);
    if (decoded.status != Decoded::Status::kOk) {
      return DeltaRejection{
          Kind::kCodeword,
          fault_text(decoded, rest, header.format.codeword),
          out.commands.size()};
    }
    out.commands.push_back(decoded.command);
    pos += decoded.consumed;
  }
  out.commands.shrink_to_fit();
  return std::nullopt;
}

void check_delta_model(ParsedDelta& parsed) {
  parsed.write_order =
      check_command_table(parsed.commands, parsed.header.reference_length,
                          parsed.header.version_length);
}

ParsedDelta parse_delta(ByteView data) {
  ParsedDelta out;
  if (const auto rejection = decode_delta(data, out)) {
    throw FormatError(rejection->message);
  }
  check_delta_model(out);
  return out;
}

std::size_t scan_equation2(
    std::span<const CommandRef> commands,
    std::span<const KeyedWrite> write_order,
    const std::function<bool(const WriteBeforeRead&)>& visit) {
  const std::size_t n = commands.size();
  const bool in_order = write_order.empty();
  std::vector<offset_t> starts(n);  // the k-th write's offset
  std::vector<offset_t> reads;
  std::vector<std::size_t> readers;  // reads[j] is command readers[j]'s
  reads.reserve(n);
  readers.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    starts[k] = in_order ? commands[k].to : write_order[k].to;
    if (!commands[k].is_add()) {
      reads.push_back(commands[k].from);
      readers.push_back(k);
    }
  }
  // Merge the reads, in offset order, against the writes: read offsets
  // only grow, so the last write starting at or before read.first (the
  // only one that can reach it from the left) never moves back.
  std::size_t conflicts = 0;
  std::size_t k = 0;
  for (const KeyedWrite& r : sort_by_offset(reads)) {
    const std::size_t reader = readers[r.index];
    const Interval read = Interval::of(r.to, commands[reader].length);
    while (k + 1 < n && starts[k + 1] <= read.first) ++k;
    for (std::size_t j = k; j < n && starts[j] <= read.last; ++j) {
      const std::size_t writer = in_order ? j : write_order[j].index;
      if (writer >= reader) continue;  // later or self: no conflict
      const CommandRef& w = commands[writer];
      const offset_t write_last = w.to + (w.length - 1);
      if (write_last < read.first) continue;
      ++conflicts;
      if (!visit({reader, writer,
                  Interval{std::max(read.first, w.to),
                           std::min(read.last, write_last)}})) {
        return conflicts;
      }
    }
  }
  return conflicts;
}

CodewordCostModel::CodewordCostModel(DeltaFormat format,
                                     length_t version_length) noexcept
    : format_(format), offset_width_(paper_offset_width(version_length)) {}

std::size_t CodewordCostModel::copy_size(const CopyCommand& c) const noexcept {
  const bool exp = format_.offsets == WriteOffsets::kExplicit;
  if (format_.codeword == Codeword::kVarint) {
    return 1 + (exp ? varint_size(c.to) : 0) + varint_size(c.from) +
           varint_size(c.length);
  }
  std::size_t total = 0;
  CopyCommand rest = c;
  while (rest.length > 0) {
    const length_t chunk = std::min(rest.length, kPaperMaxCopy);
    total += 1 + (exp ? offset_width_ : 0) + f_width(f_class(rest.from)) +
             l_width(l_class(chunk));
    rest.from += chunk;
    rest.to += chunk;
    rest.length -= chunk;
  }
  return total;
}

std::size_t CodewordCostModel::add_size(offset_t to,
                                        length_t length) const noexcept {
  const bool exp = format_.offsets == WriteOffsets::kExplicit;
  if (format_.codeword == Codeword::kVarint) {
    return 1 + (exp ? varint_size(to) : 0) + varint_size(length) +
           static_cast<std::size_t>(length);
  }
  const std::uint64_t chunks = (length + kPaperMaxAdd - 1) / kPaperMaxAdd;
  return static_cast<std::size_t>(chunks * (2 + (exp ? offset_width_ : 0)) +
                                  length);
}

std::uint64_t CodewordCostModel::conversion_cost(
    const CopyCommand& c) const noexcept {
  const std::size_t add = add_size(c.to, c.length);
  const std::size_t copy = copy_size(c);
  return add > copy ? add - copy : 1;
}

}  // namespace ipd
