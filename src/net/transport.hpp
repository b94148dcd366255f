// Byte-stream transport abstraction the client side of the protocol
// runs over.
//
// Two implementations ship: POSIX stream sockets (net/tcp_transport.hpp:
// TCP connections and the AF_UNIX socket pairs behind
// DeltaServer::connect_local) and a fault-injecting client-side
// decorator (net/faulty_transport.hpp). The OTA client is written
// against this interface only, so every fault the decorator can invent
// is, by construction, survivable by the same code that runs in
// production. The server side is the epoll reactor, which works on the
// socket descriptors directly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/net_error.hpp"
#include "net/protocol.hpp"

namespace ipd {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Block until at least one byte is available; return the number of
  /// bytes placed in `out`. 0 means clean end-of-stream. Throws
  /// TransportError on connection failure or read timeout.
  virtual std::size_t read_some(MutByteView out) = 0;

  /// Write all of `data` (handling partial writes). Throws TransportError.
  virtual void write_all(ByteView data) = 0;

  /// Shut the connection down; a blocked read_some on another thread
  /// returns/throws promptly. Idempotent and thread-safe.
  virtual void close() noexcept = 0;

  /// Bound how long read_some blocks; 0 disables. Default: unsupported
  /// no-op.
  virtual void set_read_timeout(int /*ms*/) {}

  /// Peer description for diagnostics ("127.0.0.1:4242", "local", ...).
  virtual std::string peer() const = 0;
};

/// One protocol conversation over a transport: pumps frames in and out
/// and counts the bytes received (the OTA client's report).
class FramedConnection {
 public:
  explicit FramedConnection(Transport& transport) : transport_(transport) {}

  /// Next decoded message, or std::nullopt on clean end-of-stream.
  /// Throws FormatError on a corrupt frame, TransportError on failure.
  /// Updates inbound_trace() from the frame's trace extension (cleared
  /// when the frame carries none).
  std::optional<Message> receive();

  /// Encode and write one message, attaching the outbound trace context
  /// (if set) to the frame; returns wire bytes written.
  std::size_t send(const Message& message);

  /// Trace context attached to every subsequent send(). Only set this
  /// after negotiating kProtocolVersionTraced: v1 peers reject the
  /// extension's flag byte. An invalid context clears it.
  void set_outbound_trace(const obs::TraceContext& ctx) noexcept {
    outbound_trace_ = ctx;
  }

  /// Trace context of the last received frame (invalid when it had
  /// none).
  const obs::TraceContext& inbound_trace() const noexcept {
    return inbound_trace_;
  }

  std::uint64_t bytes_received() const noexcept { return bytes_received_; }

 private:
  Transport& transport_;
  FrameReader reader_;
  obs::TraceContext outbound_trace_;
  obs::TraceContext inbound_trace_;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace ipd
