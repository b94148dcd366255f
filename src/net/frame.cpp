#include "net/frame.hpp"

#include <cstring>
#include <string>

#include "core/checksum.hpp"

namespace ipd {

namespace {

constexpr std::uint8_t kMagic[4] = {'I', 'P', 'D', 'F'};

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u64(Bytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Trace extension body length for ext_version 1 (after the ext_len
/// byte): version + 16B trace id + 8B span + 8B parent + 1B flags.
constexpr std::size_t kTraceExtBody = kTraceExtSize - 1;

void append_trace_ext(Bytes& out, const obs::TraceContext& trace) {
  out.push_back(static_cast<std::uint8_t>(kTraceExtBody));
  out.push_back(1);  // ext_version
  put_u64(out, trace.trace_hi);
  put_u64(out, trace.trace_lo);
  put_u64(out, trace.span_id);
  put_u64(out, trace.parent_span_id);
  out.push_back(trace.sampled ? 1 : 0);
}

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

Bytes encode_frame(FrameType type, ByteView payload,
                   const obs::TraceContext* trace) {
  const bool traced = trace != nullptr && trace->valid();
  const std::size_t ext = traced ? kTraceExtSize : 0;
  if (payload.size() > kMaxFramePayload - ext) {
    throw ValidationError("frame payload too large: " +
                          std::to_string(payload.size()) + " > " +
                          std::to_string(kMaxFramePayload));
  }
  Bytes out;
  out.reserve(kFrameHeaderSize + ext + payload.size() + kFrameTrailerSize);
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(traced ? kFrameFlagTrace : 0);
  out.push_back(0);
  put_u32(out, static_cast<std::uint32_t>(ext + payload.size()));
  if (traced) append_trace_ext(out, *trace);
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc32c(out));
  return out;
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
  const std::uint32_t len = get_u32(head + 8);
  if (len > kMaxFramePayload) {
    throw FormatError("frame: payload length " + std::to_string(len) +
                      " exceeds limit");
  }
  const std::size_t total = kFrameHeaderSize + len + kFrameTrailerSize;
  if (buffered() < total) return std::nullopt;
  const std::uint32_t wire_crc = get_u32(head + kFrameHeaderSize + len);
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
    if (ext_len >= kTraceExtSize - 1 && body[1] == 1) {
      obs::TraceContext ctx;
      ctx.trace_hi = get_u64(body + 2);
      ctx.trace_lo = get_u64(body + 10);
      ctx.span_id = get_u64(body + 18);
      ctx.parent_span_id = get_u64(body + 26);
      ctx.sampled = (body[34] & 1) != 0;
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
