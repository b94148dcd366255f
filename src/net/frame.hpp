// Length-framed wire format for the delta distribution protocol.
//
// Everything that crosses a transport is a frame:
//
//   offset size
//   0      4    magic "IPDF" (0x49 0x50 0x44 0x46)
//   4      1    frame format version (kFrameVersion, always 1)
//   5      1    frame type (FrameType)
//   6      1    flags (kFrameFlagTrace); zero on v1 sessions
//   7      1    reserved, must be zero
//   8      4    payload length, little-endian
//   12     N    payload (message body, see protocol.hpp)
//   12+N   4    CRC-32C over bytes [0, 12+N), little-endian
//
// When kFrameFlagTrace is set in the flags byte, the payload region is
// prefixed with a trace-context extension block (counted in the length
// field and covered by the CRC):
//
//   [u8 ext_len] [u8 ext_version=1] [16B trace id, hi/lo u64 LE]
//   [8B span id LE] [8B parent span id LE] [u8 flags: bit0 = sampled]
//
// ext_len counts the bytes after itself (34 for ext_version 1); a
// reader skips ext_len bytes it does not understand, so the block can
// grow without another version bump. v1 peers reject any nonzero flag
// byte, so the extension is only emitted on connections that negotiated
// protocol version >= kProtocolVersionTraced in HELLO — the frame
// format version byte itself never changes.
//
// The per-frame CRC-32C (core/checksum) is what makes the transport
// fault-tolerant: a bit flipped anywhere in flight is caught *before* the
// payload reaches the streaming applier, so a device never feeds corrupt
// bytes into the only copy of its image. A frame that fails its CRC
// poisons the whole connection (FormatError) — the peer cannot trust any
// subsequent byte boundary — and recovery is reconnect + RESUME.
#pragma once

#include <cstdint>
#include <optional>

#include "core/types.hpp"
#include "obs/trace_context.hpp"

namespace ipd {

/// HELLO-negotiated protocol versions. kProtocolVersion is the baseline
/// every peer speaks; kProtocolVersionTraced additionally allows the
/// per-frame trace-context extension. The frame format version byte
/// (kFrameVersion) is independent and stays 1 for both.
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::uint8_t kProtocolVersionTraced = 2;
inline constexpr std::uint8_t kFrameVersion = 1;

/// Flags byte (offset 6). v1 peers require it to be zero.
inline constexpr std::uint8_t kFrameFlagTrace = 0x01;

inline constexpr std::size_t kFrameHeaderSize = 12;
inline constexpr std::size_t kFrameTrailerSize = 4;
/// Trace extension block: ext_len byte + 34 bytes of ext_version 1 body.
inline constexpr std::size_t kTraceExtSize = 35;
/// Upper bound on a frame payload; a peer announcing more is corrupt or
/// hostile and is rejected before any allocation.
inline constexpr std::size_t kMaxFramePayload = 4u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,       ///< client greeting: version + chunk preference
  kHelloAck = 2,    ///< server reply: version + history extent
  kGetDelta = 3,    ///< request the upgrade artifact for (from, to)
  kResume = 4,      ///< re-request an artifact from a byte offset
  kDeltaBegin = 5,  ///< artifact metadata, precedes its data frames
  kDeltaData = 6,   ///< one chunk of artifact bytes
  kDeltaEnd = 7,    ///< artifact trailer: total size + checksum
  kError = 8,       ///< structured failure (code + text)
  // 9 and 10 are retired (a second metrics request/reply pair, folded
  // into STATS): FrameReader refuses them; never reuse them.
  kStatsReq = 11,   ///< ask for the Prometheus-style stats exposition
  kStats = 12,      ///< stats exposition text (counters + histograms)
};

const char* frame_type_name(FrameType type) noexcept;

struct Frame {
  FrameType type = FrameType::kError;
  Bytes payload;  ///< message body, trace extension already stripped
  /// Trace context carried by the frame's extension block, if any.
  std::optional<obs::TraceContext> trace;
};

/// Serialize one frame (header + payload + CRC-32C trailer). A valid
/// `trace` adds the trace-context extension — only do this on a
/// connection that negotiated kProtocolVersionTraced; v1 peers reject
/// the flag byte. Throws ValidationError if the payload (plus
/// extension) exceeds kMaxFramePayload.
Bytes encode_frame(FrameType type, ByteView payload,
                   const obs::TraceContext* trace = nullptr);

/// Incremental frame parser: feed transport bytes in any chunking, pop
/// complete verified frames. Malformed input (bad magic, version, type,
/// oversized length, CRC mismatch) throws FormatError; incomplete input
/// just waits for more bytes.
class FrameReader {
 public:
  void feed(ByteView chunk);

  /// Next complete frame, or std::nullopt if more bytes are needed.
  std::optional<Frame> next();

  /// Declare end-of-stream: throws FormatError if a partial frame is
  /// still buffered (the stream was truncated mid-frame).
  void finish() const;

  /// Bytes buffered but not yet consumed by a completed frame.
  std::size_t buffered() const noexcept { return pending_.size() - pos_; }

  /// Frames successfully decoded so far.
  std::uint64_t frames_decoded() const noexcept { return decoded_; }

 private:
  void compact();

  Bytes pending_;
  std::size_t pos_ = 0;
  std::uint64_t decoded_ = 0;
};

}  // namespace ipd
