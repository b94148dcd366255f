#include "net/protocol.hpp"

namespace ipd {

namespace {

// Fields are fixed-width little-endian (core/buffer.hpp). A ByteReader
// throws FormatError on underrun, and decoders call done() so trailing
// bytes are rejected too (a frame passed its CRC, so any length mismatch
// is a protocol bug, not line noise).
void done(const ByteReader& r) {
  if (!r.exhausted()) throw FormatError("message payload has trailing bytes");
}

Bytes rest(ByteReader& r) {
  const ByteView tail = r.read_bytes(r.remaining());
  return Bytes(tail.begin(), tail.end());
}

std::string rest_string(ByteReader& r) {
  const ByteView tail = r.read_bytes(r.remaining());
  return std::string(tail.begin(), tail.end());
}

Bytes payload_of(const HelloMsg& m) {
  ByteWriter out;
  out.write_u32le(m.protocol_version);
  out.write_u32le(m.max_chunk);
  return out.take();
}

Bytes payload_of(const HelloAckMsg& m) {
  ByteWriter out;
  out.write_u32le(m.protocol_version);
  out.write_u32le(m.release_count);
  out.write_u32le(m.latest);
  out.write_u32le(m.chunk);
  return out.take();
}

Bytes payload_of(const GetDeltaMsg& m) {
  ByteWriter out;
  out.write_u32le(m.from);
  out.write_u32le(m.to);
  return out.take();
}

Bytes payload_of(const ResumeMsg& m) {
  ByteWriter out;
  out.write_u32le(m.from);
  out.write_u32le(m.to);
  out.write_u64le(m.offset);
  out.write_u32le(m.artifact_crc);
  return out.take();
}

Bytes payload_of(const DeltaBeginMsg& m) {
  ByteWriter out;
  out.write_u32le(m.from);
  out.write_u32le(m.to);
  out.write_u8(m.full_image);
  out.write_u8(m.last_hop);
  out.write_u64le(m.total_size);
  out.write_u64le(m.start_offset);
  out.write_u64le(m.reference_length);
  out.write_u64le(m.version_length);
  out.write_u32le(m.artifact_crc);
  return out.take();
}

Bytes payload_of(const DeltaDataMsg& m) {
  ByteWriter out;
  out.write_u64le(m.offset);
  out.write_bytes(m.data);
  return out.take();
}

Bytes payload_of(const DeltaEndMsg& m) {
  ByteWriter out;
  out.write_u64le(m.total_size);
  out.write_u32le(m.artifact_crc);
  return out.take();
}

Bytes payload_of(const ErrorMsg& m) {
  ByteWriter out;
  out.write_u32le(static_cast<std::uint32_t>(m.code));
  out.write_string(m.message);
  return out.take();
}

Bytes payload_of(const StatsReqMsg&) { return {}; }

Bytes payload_of(const StatsMsg& m) {
  return Bytes(m.text.begin(), m.text.end());
}

}  // namespace

FrameType message_type(const Message& message) noexcept {
  struct Visitor {
    FrameType operator()(const HelloMsg&) { return FrameType::kHello; }
    FrameType operator()(const HelloAckMsg&) { return FrameType::kHelloAck; }
    FrameType operator()(const GetDeltaMsg&) { return FrameType::kGetDelta; }
    FrameType operator()(const ResumeMsg&) { return FrameType::kResume; }
    FrameType operator()(const DeltaBeginMsg&) {
      return FrameType::kDeltaBegin;
    }
    FrameType operator()(const DeltaDataMsg&) { return FrameType::kDeltaData; }
    FrameType operator()(const DeltaEndMsg&) { return FrameType::kDeltaEnd; }
    FrameType operator()(const ErrorMsg&) { return FrameType::kError; }
    FrameType operator()(const StatsReqMsg&) { return FrameType::kStatsReq; }
    FrameType operator()(const StatsMsg&) { return FrameType::kStats; }
  };
  return std::visit(Visitor{}, message);
}

Bytes encode_message(const Message& message, const obs::TraceContext* trace) {
  const Bytes payload =
      std::visit([](const auto& m) { return payload_of(m); }, message);
  return encode_frame(message_type(message), payload, trace);
}

Message decode_message(const Frame& frame) {
  ByteReader c(frame.payload);
  switch (frame.type) {
    case FrameType::kHello: {
      HelloMsg m;
      m.protocol_version = c.read_u32le();
      m.max_chunk = c.read_u32le();
      done(c);
      return m;
    }
    case FrameType::kHelloAck: {
      HelloAckMsg m;
      m.protocol_version = c.read_u32le();
      m.release_count = c.read_u32le();
      m.latest = c.read_u32le();
      m.chunk = c.read_u32le();
      done(c);
      return m;
    }
    case FrameType::kGetDelta: {
      GetDeltaMsg m;
      m.from = c.read_u32le();
      m.to = c.read_u32le();
      done(c);
      return m;
    }
    case FrameType::kResume: {
      ResumeMsg m;
      m.from = c.read_u32le();
      m.to = c.read_u32le();
      m.offset = c.read_u64le();
      m.artifact_crc = c.read_u32le();
      done(c);
      return m;
    }
    case FrameType::kDeltaBegin: {
      DeltaBeginMsg m;
      m.from = c.read_u32le();
      m.to = c.read_u32le();
      m.full_image = c.read_u8();
      m.last_hop = c.read_u8();
      m.total_size = c.read_u64le();
      m.start_offset = c.read_u64le();
      m.reference_length = c.read_u64le();
      m.version_length = c.read_u64le();
      m.artifact_crc = c.read_u32le();
      done(c);
      return m;
    }
    case FrameType::kDeltaData: {
      DeltaDataMsg m;
      m.offset = c.read_u64le();
      m.data = rest(c);
      return m;
    }
    case FrameType::kDeltaEnd: {
      DeltaEndMsg m;
      m.total_size = c.read_u64le();
      m.artifact_crc = c.read_u32le();
      done(c);
      return m;
    }
    case FrameType::kError: {
      ErrorMsg m;
      m.code = static_cast<ErrorCode>(c.read_u32le());
      m.message = rest_string(c);
      return m;
    }
    case FrameType::kStatsReq: {
      done(c);
      return StatsReqMsg{};
    }
    case FrameType::kStats: {
      StatsMsg m;
      m.text = rest_string(c);
      return m;
    }
  }
  throw FormatError("message: unknown frame type");
}

}  // namespace ipd
