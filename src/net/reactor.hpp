// Epoll reactor: the one server front end behind DeltaServer.
//
// One event-loop thread owns every connection: TCP clients accepted
// from the listener, and in-process clients whose socket-pair end was
// handed over with adopt(). Both go through the same admission code.
// A reactor without a listener serves in-process clients only and
// needs no port. Sockets are non-blocking;
// each connection is a pair of small state machines:
//
//   read side    idle -> (frame assembled) -> dispatch -> awaiting build
//                EPOLLIN is armed only while idle: the protocol is
//                lockstep (one request, one reply stream), so a request
//                in flight parks the read side and the kernel's receive
//                buffer backpressures a pipelining client for free.
//
//   write side   replies queue as OutBufs (bounded per connection) and
//                drain through writev. DELTA_DATA frames are zero-copy:
//                the body iovec points straight into the store/cache
//                artifact (a pinned shared_ptr<const Bytes>), with only
//                the 20-odd header bytes and the 4-byte CRC trailer
//                materialized per frame. A transfer tops the queue up to
//                max_queued_bytes and then waits for the socket — a slow
//                reader costs one bounded queue, never a thread and
//                never another connection's progress.
//
// CPU-bound work never runs on the loop: GET_DELTA/RESUME go to the
// DeltaService's build pool via serve_async(), and completion comes back
// through an eventfd mailbox that re-arms the connection for writing.
// Adopted sockets arrive through the same mailbox.
//
// Saturation load-sheds instead of stalling:
//   * connection limit — admission answers ERROR{kShed} on the fresh
//     socket (accepted or adopted) and closes it; accepts never stop
//     draining.
//   * build-queue limit — a request beyond max_pending_builds gets
//     ERROR{kShed} immediately (the connection stays up) instead of
//     queueing behind seconds of build latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "net/server_config.hpp"
#include "net/tcp_transport.hpp"
#include "server/delta_service.hpp"

namespace ipd {

class Reactor {
 public:
  /// `service` and `listener` must outlive the reactor; a null
  /// `listener` serves adopted connections only. `config` must already
  /// be validated() — DeltaServer does this once at construction.
  Reactor(DeltaService& service, const ServerConfig& config,
          TcpListener* listener);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the event-loop thread. Throws TransportError if the epoll or
  /// eventfd plumbing cannot be created.
  void start();

  /// Signal the loop, join it, and close every connection. Idempotent.
  void stop();

  /// Hand a connected socket to the loop (thread-safe; after start()).
  /// It is admitted like an accepted TCP connection: over the connection
  /// limit it gets ERROR{kShed} and a close.
  void adopt(std::unique_ptr<TcpTransport> transport);

  /// Connections currently registered with the loop.
  std::size_t active_connections() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  struct Impl;
  void run();

  DeltaService& service_;
  const ServerConfig config_;
  TcpListener* listener_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> live_{0};
};

}  // namespace ipd
