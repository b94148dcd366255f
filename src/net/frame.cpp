#include "net/frame.hpp"

#include <cstring>
#include <string>

#include "core/checksum.hpp"

namespace ipd {

namespace {

constexpr std::uint8_t kMagic[4] = {'I', 'P', 'D', 'F'};

/// Trace extension body length for ext_version 1 (after the ext_len
/// byte): version + 16B trace id + 8B span + 8B parent + 1B flags.
constexpr std::size_t kTraceExtBody = kTraceExtSize - 1;

bool valid_type(std::uint8_t t) noexcept {
  return (t >= static_cast<std::uint8_t>(FrameType::kHello) &&
          t <= static_cast<std::uint8_t>(FrameType::kError)) ||
         t == static_cast<std::uint8_t>(FrameType::kStatsReq) ||
         t == static_cast<std::uint8_t>(FrameType::kStats);
}

}  // namespace

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kGetDelta: return "GET_DELTA";
    case FrameType::kResume: return "RESUME";
    case FrameType::kDeltaBegin: return "DELTA_BEGIN";
    case FrameType::kDeltaData: return "DELTA_DATA";
    case FrameType::kDeltaEnd: return "DELTA_END";
    case FrameType::kError: return "ERROR";
    case FrameType::kStatsReq: return "STATS_REQ";
    case FrameType::kStats: return "STATS";
  }
  return "?";
}

void append_frame_header(ByteWriter& out, FrameType type,
                         std::size_t body_len,
                         const obs::TraceContext* trace) {
  const bool traced = trace != nullptr && trace->valid();
  const std::size_t ext = traced ? kTraceExtSize : 0;
  if (body_len > kMaxFramePayload - ext) {
    throw ValidationError("frame payload too large: " +
                          std::to_string(body_len) + " > " +
                          std::to_string(kMaxFramePayload));
  }
  out.write_bytes(ByteView(kMagic, 4));
  out.write_u8(kFrameVersion);
  out.write_u8(static_cast<std::uint8_t>(type));
  out.write_u8(traced ? kFrameFlagTrace : 0);
  out.write_u8(0);
  out.write_u32le(static_cast<std::uint32_t>(ext + body_len));
  if (traced) {
    out.write_u8(static_cast<std::uint8_t>(kTraceExtBody));
    out.write_u8(1);  // ext_version
    out.write_u64le(trace->trace_hi);
    out.write_u64le(trace->trace_lo);
    out.write_u64le(trace->span_id);
    out.write_u64le(trace->parent_span_id);
    out.write_u8(trace->sampled ? 1 : 0);
  }
}

Bytes encode_frame(FrameType type, ByteView payload,
                   const obs::TraceContext* trace) {
  ByteWriter out;
  out.reserve(kFrameHeaderSize + kTraceExtSize + payload.size() +
              kFrameTrailerSize);
  append_frame_header(out, type, payload.size(), trace);
  out.write_bytes(payload);
  out.write_u32le(crc32c(out.bytes()));
  return out.take();
}

void FrameReader::feed(ByteView chunk) {
  pending_.insert(pending_.end(), chunk.begin(), chunk.end());
}

std::optional<Frame> FrameReader::next() {
  if (buffered() < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* head = pending_.data() + pos_;
  if (std::memcmp(head, kMagic, 4) != 0) {
    throw FormatError("frame: bad magic");
  }
  if (head[4] != kFrameVersion) {
    throw FormatError("frame: unsupported protocol version " +
                      std::to_string(head[4]));
  }
  if (!valid_type(head[5])) {
    throw FormatError("frame: unknown type " + std::to_string(head[5]));
  }
  if ((head[6] & ~kFrameFlagTrace) != 0 || head[7] != 0) {
    throw FormatError("frame: nonzero reserved bytes");
  }
  const std::uint32_t len = ByteReader(ByteView(head + 8, 4)).read_u32le();
  if (len > kMaxFramePayload) {
    throw FormatError("frame: payload length " + std::to_string(len) +
                      " exceeds limit");
  }
  const std::size_t total = kFrameHeaderSize + len + kFrameTrailerSize;
  if (buffered() < total) return std::nullopt;
  const std::uint32_t wire_crc =
      ByteReader(ByteView(head + kFrameHeaderSize + len, 4)).read_u32le();
  const std::uint32_t computed =
      crc32c(ByteView(head, kFrameHeaderSize + len));
  if (wire_crc != computed) {
    throw FormatError("frame: CRC mismatch (corrupted in transit)");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(head[5]);
  const std::uint8_t* body = head + kFrameHeaderSize;
  std::size_t body_len = len;
  if ((head[6] & kFrameFlagTrace) != 0) {
    // Trace extension prefixes the payload: [ext_len][ext body]. Skip
    // ext_len bytes even when the body is longer than we understand.
    if (body_len < 1) throw FormatError("frame: trace extension truncated");
    const std::size_t ext_len = body[0];
    if (body_len < 1 + ext_len) {
      throw FormatError("frame: trace extension truncated");
    }
    if (ext_len >= kTraceExtBody && body[1] == 1) {
      ByteReader ext(ByteView(body + 2, kTraceExtBody - 1));
      obs::TraceContext ctx;
      ctx.trace_hi = ext.read_u64le();
      ctx.trace_lo = ext.read_u64le();
      ctx.span_id = ext.read_u64le();
      ctx.parent_span_id = ext.read_u64le();
      ctx.sampled = (ext.read_u8() & 1) != 0;
      if (ctx.valid()) frame.trace = ctx;
    }
    body += 1 + ext_len;
    body_len -= 1 + ext_len;
  }
  frame.payload.assign(body, body + body_len);
  pos_ += total;
  ++decoded_;
  compact();
  return frame;
}

void FrameReader::finish() const {
  if (buffered() != 0) {
    throw FormatError("frame: stream truncated mid-frame (" +
                      std::to_string(buffered()) + " trailing bytes)");
  }
}

void FrameReader::compact() {
  // Drop consumed bytes once they dominate the buffer; amortized O(1).
  if (pos_ > 4096 && pos_ * 2 > pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

}  // namespace ipd
