// ServerConfig: every operational knob of the wire front end in ONE
// validated struct, shared by DeltaServer and the `ipdelta serve` CLI so
// defaults and error messages live in exactly one place.
//
// This replaces the old NetServerOptions sprawl (and the per-call-site
// clamping that came with it): construct a config, call validated(), and
// hand the result to DeltaServer. validated() rejects nonsense loudly
// (ValidationError with a message naming the field) instead of silently
// "fixing" it — a fleet operator who typed --chunk 0 should learn about
// it at start-up, not from a wire anomaly.
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace ipd {

struct ServerConfig {
  /// TCP port on 127.0.0.1 bound by DeltaServer::start(); 0 picks an
  /// ephemeral port (see DeltaServer::port()). In-process connections
  /// (DeltaServer::connect_local()) need none.
  std::uint16_t port = 0;

  /// Concurrent connections the reactor will carry, TCP and in-process
  /// alike. Connections over the limit are load-shed: they receive
  /// ERROR{kShed} and an immediate close (retryable — the OTA client
  /// backs off and reconnects). The reactor holds per-connection state,
  /// not a thread, so this defaults an order of magnitude above what a
  /// thread per connection affords.
  std::size_t max_connections = 256;

  /// Drop a connection that makes no progress — nothing read from it and
  /// nothing written to it — for this long (0 = never). A connection
  /// waiting on a delta build is exempt; build latency is bounded by the
  /// build queue, not the peer.
  int idle_timeout_ms = 10'000;

  /// Server-preferred DELTA_DATA payload size; the effective chunk is
  /// min(this, client HELLO max_chunk) and at least 512.
  std::size_t chunk_bytes = 64u << 10;

  /// Register each transfer with the global stall watchdog under this
  /// deadline: a transfer whose last progress is older than this is
  /// flagged with a kStall event carrying its trace id (0 = off).
  std::uint64_t stall_deadline_ms = 0;

  /// Per-connection cap on queued-but-unsent reply bytes. A transfer
  /// tops its output queue up to this bound and then waits for the
  /// socket to drain — a slow reader costs one bounded queue, never
  /// unbounded memory and never another connection's progress.
  std::size_t max_queued_bytes = 4u << 20;

  /// Requests allowed to wait on delta builds at once, across all
  /// connections. Requests beyond it are load-shed with ERROR{kShed}
  /// (the connection stays up). 0 derives the bound at start():
  /// max(2x the service's build workers, 64) — enough to keep every
  /// worker busy with one request queued behind it (with a floor so
  /// small machines still absorb normal fleet bursts), small enough
  /// that shed replies go out in milliseconds instead of requests
  /// stalling for seconds.
  std::size_t max_pending_builds = 0;

  /// Check every field and return a normalized copy (only derived
  /// values are filled in; no silent clamping). Throws ValidationError
  /// naming the offending field otherwise.
  ServerConfig validated() const;
};

}  // namespace ipd
