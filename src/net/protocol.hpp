// Message layer of the delta distribution protocol: the typed bodies that
// ride inside frames (net/frame.hpp).
//
// Conversation (client left, server right):
//
//   HELLO{version, max_chunk}        ─►
//                                    ◄─  HELLO_ACK{version, releases, latest}
//   GET_DELTA{from, to}              ─►
//                                    ◄─  DELTA_BEGIN{hop metadata}
//                                    ◄─  DELTA_DATA{offset, bytes}  (repeated)
//                                    ◄─  DELTA_END{size, crc}
//   ... client applies, asks for the next hop, until it runs `to` ...
//
// One request streams exactly ONE artifact — the first hop of whatever
// route the service chose (direct delta, chain hop, or full image). A
// chained upgrade is the client asking again from its new release, which
// is precisely how a constrained device wants it: one in-place apply at a
// time, never more than one artifact's state in flight.
//
// RESUME{from, to, offset, crc} restarts an interrupted artifact transfer
// mid-stream: `from`/`to` repeat the original GET_DELTA request, and the
// server re-serves the same artifact (cache makes this cheap, the
// deterministic pipeline makes it byte-identical — guarded by the crc
// echo) starting at `offset`. ERROR carries a machine-readable code so
// clients can tell retryable congestion (kShed, kBusy) from permanent
// failures (kBadRequest). STATS_REQ/STATS expose the server's metrics for
// fleet dashboards.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "net/frame.hpp"
#include "server/version_store.hpp"

namespace ipd {

enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,  ///< malformed ids / unknown release — do not retry
  kBusy = 2,        ///< pre-reactor servers' congestion code — modern
                    ///< servers send kShed; clients honor both
  kBadResume = 3,   ///< offset/crc does not match the artifact
  kInternal = 4,    ///< server-side failure building the artifact
  kProtocol = 5,    ///< unexpected message for the session state
  kShed = 6,        ///< load shed: the server is saturated (connection or
                    ///< build-queue limit) and refused this request
                    ///< instead of stalling — retry after backoff
};

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  /// Largest DELTA_DATA payload the client wants per frame.
  std::uint32_t max_chunk = 64u << 10;
};

struct HelloAckMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t release_count = 0;
  ReleaseId latest = 0;
  /// Chunk size the server will actually use (min of both preferences).
  std::uint32_t chunk = 64u << 10;
};

struct GetDeltaMsg {
  ReleaseId from = 0;
  ReleaseId to = 0;
};

struct ResumeMsg {
  ReleaseId from = 0;
  /// The release the client ultimately wants — the same `to` as the
  /// interrupted GET_DELTA, *not* the hop target. The server re-derives
  /// the route from it, so DELTA_BEGIN.last_hop stays truthful on
  /// resumed mid-route transfers; the CRC echo pins the artifact.
  ReleaseId to = 0;
  std::uint64_t offset = 0;
  std::uint32_t artifact_crc = 0;  ///< CRC-32C of the whole artifact
};

struct DeltaBeginMsg {
  ReleaseId from = 0;
  ReleaseId to = 0;  ///< hop target; may be < the requested release
  std::uint8_t full_image = 0;
  std::uint8_t last_hop = 0;  ///< to == the release the client asked for
  std::uint64_t total_size = 0;       ///< artifact bytes
  std::uint64_t start_offset = 0;     ///< 0, or the honored RESUME offset
  std::uint64_t reference_length = 0; ///< body size of `from`
  std::uint64_t version_length = 0;   ///< body size of `to`
  std::uint32_t artifact_crc = 0;     ///< CRC-32C of the whole artifact
};

struct DeltaDataMsg {
  std::uint64_t offset = 0;
  Bytes data;
};

struct DeltaEndMsg {
  std::uint64_t total_size = 0;
  std::uint32_t artifact_crc = 0;
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// STATS_REQ/STATS carry the server's one metrics exposition: the
/// Prometheus-style text (DeltaService::stats_text()) with every
/// counter, histogram quantiles, cache gauges, stage timings and, on a
/// store-backed server, the store's ipdelta_store_* series — what
/// `ipdelta stats <host:port>` polls and a scraper would ingest.
struct StatsReqMsg {};

struct StatsMsg {
  std::string text;
};

using Message =
    std::variant<HelloMsg, HelloAckMsg, GetDeltaMsg, ResumeMsg, DeltaBeginMsg,
                 DeltaDataMsg, DeltaEndMsg, ErrorMsg, StatsReqMsg, StatsMsg>;

/// Wire type of an encoded message.
FrameType message_type(const Message& message) noexcept;

/// Serialize a message into a complete frame (encode_frame applied).
/// A valid `trace` adds the frame's trace-context extension — only on
/// connections that negotiated kProtocolVersionTraced.
Bytes encode_message(const Message& message,
                     const obs::TraceContext* trace = nullptr);

/// Decode a verified frame's payload. Throws FormatError on a payload
/// that is too short/long for its type.
Message decode_message(const Frame& frame);

}  // namespace ipd
