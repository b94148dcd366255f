// DeltaServer: the wire front end of the delta distribution service.
//
// Every session runs on one epoll reactor (net/reactor.hpp): one
// event-loop thread multiplexes every connection with non-blocking
// framed I/O, bounded per-connection output queues, and zero-copy
// writev of cached artifacts. CPU-bound delta builds run on the
// DeltaService's shared build pool via serve_async(); a completed build
// re-arms its connection for writing through an eventfd mailbox. The
// loop thread never blocks on a socket or a build.
//
// Operational guard rails (all typed, never a silent stall):
//   * connection limit — excess clients get ERROR{kShed} and a close
//     (retryable: the OTA client backs off and reconnects);
//   * build-queue limit — requests beyond max_pending_builds get
//     ERROR{kShed} while the connection stays up;
//   * idle timeout — a connection with no read/write progress for
//     idle_timeout_ms is dropped;
//   * per-request errors (unknown release ids, bad resume offsets) are
//     answered with typed ERROR frames and the connection stays up.
//
// Clients reach the reactor two ways. start() binds a TCP listener;
// connect_local() hands the server end of an AF_UNIX socket pair to the
// loop and returns the client end, so tests and the campaign simulator
// run the production path in-process without a port. A server that only
// ever sees connect_local() runs the same loop with no listener.
//
// One request streams ONE artifact: the first step of the route the
// service picked. A chain upgrade is the client asking hop by hop, so
// every hop artifact is shared through the service cache across the
// whole straggler fleet.
#pragma once

#include <memory>

#include "core/sync.hpp"
#include "net/reactor.hpp"
#include "net/server_config.hpp"
#include "net/tcp_transport.hpp"
#include "server/delta_service.hpp"

namespace ipd {

class DeltaServer {
 public:
  /// `service` must outlive the server. Throws ValidationError if
  /// `config` does not validate (see ServerConfig).
  explicit DeltaServer(DeltaService& service,
                       const ServerConfig& config = {});
  ~DeltaServer();

  DeltaServer(const DeltaServer&) = delete;
  DeltaServer& operator=(const DeltaServer&) = delete;

  /// Bind the TCP listener and start the reactor. Throws TransportError
  /// if the bind fails, and Error if the reactor is already running
  /// (a start() or connect_local() came first).
  void start();

  /// Stop accepting, close every live connection (TCP and local), and
  /// join the reactor. Idempotent; also run by the destructor.
  void stop();

  /// Actual listening port (after start()).
  std::uint16_t port() const;

  /// Open an in-process connection to the reactor over a socket pair and
  /// return the client end. Admission (connection limit, shedding) is
  /// the same as for TCP. Starts the reactor without a listener if it is
  /// not running. Thread-safe. Throws TransportError if the pair cannot
  /// be created.
  std::unique_ptr<TcpTransport> connect_local();

  /// Connections currently registered with the reactor.
  std::size_t active_sessions() const;

  const ServerConfig& config() const noexcept { return config_; }

 private:
  void start_reactor(std::unique_ptr<TcpListener> listener)
      REQUIRES(state_mutex_);

  DeltaService& service_;
  ServerConfig config_;

  /// start(), stop() and connect_local() may race from different threads
  /// (the destructor runs stop() from whichever thread drops the server;
  /// campaign workers connect concurrently), so exactly one concurrent
  /// start() wins and the reactor is created once.
  mutable Mutex state_mutex_{"DeltaServer::state"};
  std::unique_ptr<TcpListener> listener_ GUARDED_BY(state_mutex_);
  std::unique_ptr<Reactor> reactor_ GUARDED_BY(state_mutex_);
};

}  // namespace ipd
