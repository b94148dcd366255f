// POSIX stream-socket implementation of the Transport interface: TCP
// connections, and AF_UNIX socket pairs for in-process sessions
// (make_socket_pair, DeltaServer::connect_local).
//
// Blocking sockets, one per session. close() uses shutdown(2) rather
// than close(2) so a read blocked on another thread wakes immediately
// without an fd-reuse race; the descriptor is released only by the
// destructor. Idle timeouts map to SO_RCVTIMEO. The listener's accept
// loop polls with a short timeout so stop requests take effect promptly
// and deterministically on every platform.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/transport.hpp"

namespace ipd {

class TcpTransport final : public Transport {
 public:
  /// Connect to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  /// Throws TransportError on failure.
  static std::unique_ptr<TcpTransport> connect(const std::string& host,
                                               std::uint16_t port);

  /// Adopt an already-connected descriptor (listener side, socket pair).
  TcpTransport(int fd, std::string peer);
  ~TcpTransport() override;

  std::size_t read_some(MutByteView out) override;
  void write_all(ByteView data) override;
  void close() noexcept override;
  void set_read_timeout(int ms) override;
  std::string peer() const override { return peer_; }

  /// Socket descriptor, for event-driven I/O (the epoll reactor).
  int native_handle() const noexcept { return fd_; }

  /// Switch the socket between blocking and non-blocking mode.
  void set_nonblocking(bool enabled);

 private:
  int fd_;
  std::atomic<bool> closed_{false};
  std::string peer_;
};

/// A connected AF_UNIX stream socket pair: bytes written to one end are
/// read from the other, and close() on either end is EOF for the peer.
/// Same kernel semantics as a TCP connection without a port. Throws
/// TransportError when the pair cannot be created.
std::pair<std::unique_ptr<TcpTransport>, std::unique_ptr<TcpTransport>>
make_socket_pair();

class TcpListener {
 public:
  /// Bind and listen on 127.0.0.1:`port`; 0 picks an ephemeral port
  /// (read it back with port()). Throws TransportError on failure —
  /// callers in sandboxed environments should treat that as "no network
  /// here" and skip, not crash.
  explicit TcpListener(std::uint16_t port, int backlog = 64);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Block (in ~100 ms polls) for the next connection; nullptr once
  /// close() has been called. Throws TransportError on accept failure.
  std::unique_ptr<TcpTransport> accept();

  /// Accept without blocking: the next queued connection, or nullptr
  /// when none is pending (or the listener is closed). Pair with
  /// set_nonblocking(true) and an epoll watch on native_handle().
  std::unique_ptr<TcpTransport> try_accept();

  /// Listening descriptor, for event-driven accept loops.
  int native_handle() const noexcept { return fd_; }

  /// Switch the listening socket between blocking and non-blocking.
  void set_nonblocking(bool enabled);

  /// Stop accepting; a blocked accept() returns nullptr within one poll.
  void close() noexcept;

 private:
  int fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> closed_{false};
};

}  // namespace ipd
