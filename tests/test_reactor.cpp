// Epoll-reactor edge cases (ctest label `net`): the situations the
// thread-per-connection front end never had to survive and the reactor
// must — a slow reader pinning its bounded output queue while other
// connections make progress, a saturated build queue answering with a
// typed ERROR{kShed} instead of a silent stall, and a client hanging up
// mid-transfer while megabytes are still queued behind a writev.
//
// Every raw connection here sets a read timeout, so a regression that
// stalls a reply fails the test with a TransportError instead of
// hanging ctest. Environments without localhost sockets GTEST_SKIP.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "apply/inplace_apply.hpp"
#include "core/checksum.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "net/delta_server.hpp"
#include "net/ota_client.hpp"
#include "net/tcp_transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

/// A live server over an explicit release history, or skipped_ when the
/// sandbox forbids localhost sockets.
struct ReactorRig {
  VersionStore store;
  std::unique_ptr<DeltaService> service;
  std::unique_ptr<DeltaServer> server;
  std::vector<Bytes> history;
  bool skipped = false;

  ReactorRig(std::vector<Bytes> releases, const ServerConfig& net,
             const ServiceOptions& service_options = {}) {
    history = std::move(releases);
    for (const Bytes& body : history) store.publish(body);
    service = std::make_unique<DeltaService>(store, service_options);
    server = std::make_unique<DeltaServer>(*service, net);
    try {
      server->start();
    } catch (const TransportError&) {
      skipped = true;
    }
  }

  std::unique_ptr<TcpTransport> connect(int read_timeout_ms = 20'000) {
    auto t = TcpTransport::connect("127.0.0.1", server->port());
    t->set_read_timeout(read_timeout_ms);
    return t;
  }

  OtaClient::TransportFactory factory() {
    return [port = server->port()] {
      return TcpTransport::connect("127.0.0.1", port);
    };
  }
};

#define SKIP_IF_NO_SOCKETS(rig)                           \
  if ((rig).skipped) {                                    \
    GTEST_SKIP() << "localhost sockets unavailable here"; \
  }

/// v0 plus a v1 that appends a megabyte of incompressible noise: the
/// served artifact dwarfs both the per-connection queue bound and the
/// kernel's loopback socket buffering, so a reader that stops reading
/// genuinely parks the transfer server-side.
std::vector<Bytes> big_tail_history(length_t tail_bytes = 1u << 20) {
  Rng rng(91);
  const Bytes reference = generate_file(rng, 16 << 10, FileProfile::kBinary);
  Bytes version = reference;
  const Bytes tail = test::random_bytes(7, tail_bytes);
  version.insert(version.end(), tail.begin(), tail.end());
  return {reference, version};
}

/// An adjacent-hop release chain with edits heavy enough that every
/// delta build occupies the (single) build worker for real milliseconds.
std::vector<Bytes> heavy_history(std::size_t releases) {
  Rng rng(92);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, 128 << 10, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 48;
  for (std::size_t i = 1; i < releases; ++i) {
    history.push_back(mutate(history.back(), rng, 300, model));
  }
  return history;
}

void hello(FramedConnection& conn, std::uint32_t max_chunk = 4096) {
  conn.send(HelloMsg{kProtocolVersion, max_chunk});
  const std::optional<Message> ack = conn.receive();
  ASSERT_TRUE(ack && std::holds_alternative<HelloAckMsg>(*ack));
}

/// One complete BEGIN..DATA*..END transfer read off the wire, its DATA
/// payloads reassembled at their stated offsets.
struct Download {
  DeltaBeginMsg begin;
  Bytes artifact;
  DeltaEndMsg end;
  std::size_t data_frames = 0;
  bool complete = false;
};

Download drain_transfer(FramedConnection& conn, const DeltaBeginMsg& begin) {
  Download d;
  d.begin = begin;
  d.artifact.resize(begin.total_size);
  for (;;) {
    const std::optional<Message> msg = conn.receive();
    if (!msg) return d;  // peer closed; complete stays false
    if (const auto* data = std::get_if<DeltaDataMsg>(&*msg)) {
      if (data->offset + data->data.size() > d.artifact.size()) return d;
      std::copy(data->data.begin(), data->data.end(),
                d.artifact.begin() + static_cast<std::ptrdiff_t>(data->offset));
      ++d.data_frames;
      continue;
    }
    if (const auto* end = std::get_if<DeltaEndMsg>(&*msg)) {
      d.end = *end;
      d.complete = true;
      return d;
    }
    return d;  // unexpected frame; complete stays false
  }
}

/// The downloaded artifact must be exactly what the server promised
/// (size and CRC-32C) and must reconstruct `expected` from `reference`
/// bit-identically, whether it was served as a delta or a full image.
void expect_reconstructs(const Download& d, const Bytes& reference,
                         const Bytes& expected) {
  ASSERT_TRUE(d.complete) << "transfer never reached DELTA_END";
  EXPECT_EQ(d.artifact.size(), d.end.total_size);
  EXPECT_EQ(crc32c(d.artifact), d.end.artifact_crc);
  if (d.begin.full_image != 0) {
    EXPECT_TRUE(test::bytes_equal(expected, d.artifact));
    return;
  }
  Bytes buffer = reference;
  buffer.resize(std::max<std::size_t>(reference.size(),
                                      d.begin.version_length));
  const length_t n = apply_delta_inplace(d.artifact, buffer);
  ASSERT_EQ(n, expected.size());
  EXPECT_TRUE(test::bytes_equal(expected, ByteView(buffer).first(n)));
}

// ---- slow reader / bounded output queue -----------------------------

TEST(Reactor, SlowReaderIsBoundedAndNeverBlocksOtherConnections) {
  ServerConfig net;
  net.chunk_bytes = 4096;
  net.max_queued_bytes = 16u << 10;
  net.idle_timeout_ms = 60'000;  // the stalled reader must not be reaped
  ReactorRig rig(big_tail_history(), net);
  SKIP_IF_NO_SOCKETS(rig);

  // Client A requests the megabyte artifact and then stops reading
  // entirely: its output queue tops out at max_queued_bytes and the
  // transfer parks until A drains.
  auto slow = rig.connect(/*read_timeout_ms=*/60'000);
  FramedConnection a(*slow);
  hello(a);
  a.send(GetDeltaMsg{0, 1});

  // Client B completes a whole update while A is parked. If the slow
  // reader held the event loop (or unbounded memory) hostage, this
  // would stall or OOM instead of finishing.
  Bytes image = rig.history[0];
  OtaClient b(rig.factory());
  const OtaReport report = b.update_streaming(image, 0, 1);
  EXPECT_EQ(report.final_release, 1u);
  EXPECT_TRUE(test::bytes_equal(rig.history[1], image));

  // Now A wakes up and drains: nothing was lost or reordered while the
  // queue was pinned at its bound.
  const std::optional<Message> first = a.receive();
  ASSERT_TRUE(first && std::holds_alternative<DeltaBeginMsg>(*first));
  const auto begin = std::get<DeltaBeginMsg>(*first);
  ASSERT_GT(begin.total_size, 4 * net.max_queued_bytes)
      << "artifact too small to exercise backpressure";
  const Download d = drain_transfer(a, begin);
  EXPECT_GT(d.data_frames, 1u);
  expect_reconstructs(d, rig.history[0], rig.history[1]);

  // The queue-depth histogram saw the transfer, and no sample ever
  // approached artifact size: the bound (max_queued_bytes plus one
  // in-flight chunk) held. Buckets are power-of-two, so the top
  // non-empty bucket proves every sample was under 2x the cap.
  const obs::HistogramSnapshot snap =
      rig.service->histograms().net_queue_depth.snapshot();
  ASSERT_GT(snap.count, 0u);
  std::size_t top = 0;
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    if (snap.buckets[b] != 0) top = b;
  }
  const std::uint64_t cap = net.max_queued_bytes + net.chunk_bytes + 512;
  EXPECT_LT(obs::Histogram::bucket_high(top), 2 * cap)
      << "a queue-depth sample escaped the max_queued_bytes bound";
}

// ---- build-queue saturation sheds with a typed ERROR ----------------

TEST(Reactor, SaturatedBuildQueueShedsTypedErrorAndConnectionSurvives) {
  ServerConfig net;
  net.max_pending_builds = 1;
  ServiceOptions service_options;
  service_options.workers = 1;
  constexpr std::size_t kClients = 6;
  ReactorRig rig(heavy_history(kClients + 1), net, service_options);
  SKIP_IF_NO_SOCKETS(rig);

  // All clients handshake first, then fire their requests back to back:
  // distinct hops, so no cache hit absorbs the burst. With one build
  // slot, the reactor admits one and must shed the rest immediately —
  // the shed reply races a multi-millisecond build it cannot win.
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<FramedConnection>> conns;
  for (std::size_t i = 0; i < kClients; ++i) {
    transports.push_back(rig.connect());
    conns.push_back(std::make_unique<FramedConnection>(*transports.back()));
    hello(*conns[i]);
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    conns[i]->send(GetDeltaMsg{static_cast<ReleaseId>(i),
                               static_cast<ReleaseId>(i + 1)});
  }

  // Every connection must reach DELTA_END eventually, retrying its
  // request on the SAME connection after each shed: a build-queue shed
  // refuses the request, not the session.
  std::size_t sheds = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    bool done = false;
    for (int attempt = 0; attempt < 1000 && !done; ++attempt) {
      const std::optional<Message> reply = conns[i]->receive();
      ASSERT_TRUE(reply.has_value()) << "server hung up on client " << i;
      if (const auto* err = std::get_if<ErrorMsg>(&*reply)) {
        // The one typed, retryable code — never kInternal, never a
        // dropped connection, and never (the old failure mode) a
        // request silently queued for seconds.
        ASSERT_EQ(err->code, ErrorCode::kShed) << err->message;
        ++sheds;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        conns[i]->send(GetDeltaMsg{static_cast<ReleaseId>(i),
                                   static_cast<ReleaseId>(i + 1)});
        continue;
      }
      ASSERT_TRUE(std::holds_alternative<DeltaBeginMsg>(*reply));
      const Download d =
          drain_transfer(*conns[i], std::get<DeltaBeginMsg>(*reply));
      expect_reconstructs(d, rig.history[i], rig.history[i + 1]);
      done = true;
    }
    EXPECT_TRUE(done) << "client " << i << " never completed";
  }

  // The burst genuinely overflowed the one-slot queue, and every shed
  // reply is accounted for in the metric the dashboards watch.
  EXPECT_GE(sheds, 1u);
  EXPECT_EQ(rig.service->metrics().net_shed.load(), sheds);
}

// ---- client disconnect mid-writev -----------------------------------

TEST(Reactor, ClientDisconnectMidTransferIsDroppedAndServingContinues) {
  ServerConfig net;
  net.chunk_bytes = 4096;
  net.max_queued_bytes = 16u << 10;
  ReactorRig rig(big_tail_history(), net);
  SKIP_IF_NO_SOCKETS(rig);

  // Read a BEGIN and a couple of DATA frames, then hang up abruptly
  // with ~a megabyte still queued: the server's next writev fails
  // (EPIPE/ECONNRESET — and must NOT be a SIGPIPE process kill) and the
  // connection is reclaimed.
  {
    auto doomed = rig.connect();
    FramedConnection conn(*doomed);
    hello(conn);
    conn.send(GetDeltaMsg{0, 1});
    const std::optional<Message> first = conn.receive();
    ASSERT_TRUE(first && std::holds_alternative<DeltaBeginMsg>(*first));
    for (int i = 0; i < 2; ++i) {
      const std::optional<Message> data = conn.receive();
      ASSERT_TRUE(data && std::holds_alternative<DeltaDataMsg>(*data));
    }
    doomed->close();
  }

  // The reactor notices asynchronously; the half-dead connection must
  // not linger as a session forever.
  bool reclaimed = false;
  for (int i = 0; i < 500 && !reclaimed; ++i) {
    reclaimed = rig.server->active_sessions() == 0;
    if (!reclaimed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(reclaimed) << "dead connection still counted as a session";

  // And the server is none the worse for it: a fresh client completes
  // the same update bit-identically (from cache — no rebuild needed).
  Bytes image = rig.history[0];
  OtaClient client(rig.factory());
  EXPECT_EQ(client.update_streaming(image, 0, 1).final_release, 1u);
  EXPECT_TRUE(test::bytes_equal(rig.history[1], image));
}

// ---- flight dumps on failure paths ----------------------------------

/// Handshake a traced (v2) session and make `ctx` the connection's
/// request context with one cheap round trip.
void traced_session(FramedConnection& conn, const obs::TraceContext& ctx) {
  conn.send(HelloMsg{kProtocolVersionTraced, 4096});
  ASSERT_TRUE(std::holds_alternative<HelloAckMsg>(*conn.receive()));
  conn.set_outbound_trace(ctx);
  conn.send(StatsReqMsg{});
  ASSERT_TRUE(std::holds_alternative<StatsMsg>(*conn.receive()));
}

/// The server-side dump recorded for `reason`, if any.
std::optional<obs::FlightDump> server_dump(const std::string& reason) {
  for (const obs::FlightDump& dump : obs::flight_dumps()) {
    if (dump.reason == reason && dump.label.rfind("server:", 0) == 0) {
      return dump;
    }
  }
  return std::nullopt;
}

TEST(Reactor, RefusedResumeLeavesAFlightDumpKeyedByTheRequestTrace) {
  ReactorRig rig(heavy_history(2), ServerConfig{});
  SKIP_IF_NO_SOCKETS(rig);
  obs::clear_flight_dumps();
  auto transport = rig.connect();
  FramedConnection conn(*transport);
  const obs::TraceContext ctx = obs::mint_trace();
  traced_session(conn, ctx);

  // A RESUME naming an artifact the server never built is refused; the
  // refusal is dumped before the ERROR frame leaves, so it is already
  // there when the client reads the reply.
  conn.send(ResumeMsg{0, 1, 1, 0xBAD0BAD0});
  const std::optional<Message> reply = conn.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<ErrorMsg>(*reply).code, ErrorCode::kBadResume);
  const std::optional<obs::FlightDump> dump =
      server_dump("resume refused: artifact changed");
  ASSERT_TRUE(dump.has_value()) << "refused resume left no flight dump";
  EXPECT_EQ(dump->trace_id, ctx.trace_id_hex());
  transport->close();
  obs::clear_flight_dumps();
}

/// Write `wire` on a traced session: the server must hang up on the
/// untrustworthy stream and leave a flight dump under the session's
/// trace. Returns the dump's text.
std::string expect_dropped_with_flight_dump(ReactorRig& rig,
                                            const Bytes& wire) {
  obs::clear_flight_dumps();
  auto transport = rig.connect();
  FramedConnection conn(*transport);
  const obs::TraceContext ctx = obs::mint_trace();
  traced_session(conn, ctx);
  transport->write_all(wire);
  // The server hangs up (EOF, or a reset).
  try {
    EXPECT_FALSE(conn.receive().has_value());
  } catch (const TransportError&) {
  }
  const std::optional<obs::FlightDump> dump =
      server_dump("corrupt inbound frame");
  obs::clear_flight_dumps();
  if (!dump.has_value()) {
    ADD_FAILURE() << "corrupt frame left no flight dump";
    return {};
  }
  EXPECT_EQ(dump->trace_id, ctx.trace_id_hex());
  return dump->text;
}

TEST(Reactor, CorruptInboundFrameLeavesAFlightDumpAndDropsTheConnection) {
  ReactorRig rig(heavy_history(2), ServerConfig{});
  SKIP_IF_NO_SOCKETS(rig);
  // One flipped payload bit: the frame CRC no longer matches.
  Bytes wire = encode_message(GetDeltaMsg{0, 1});
  wire[wire.size() - 5] ^= 0x01;
  expect_dropped_with_flight_dump(rig, wire);
}

TEST(Reactor, RetiredFrameTypeLeavesAFlightDumpAndDropsTheConnection) {
  ReactorRig rig(heavy_history(2), ServerConfig{});
  SKIP_IF_NO_SOCKETS(rig);
  // An old client's METRICS_REQ: a well-formed frame of retired type 9.
  const Bytes wire = encode_frame(static_cast<FrameType>(9), {});
  EXPECT_NE(expect_dropped_with_flight_dump(rig, wire).find("unknown type 9"),
            std::string::npos);
}

// ---- config validation ----------------------------------------------

TEST(Reactor, ServerConfigValidationNamesTheOffendingField) {
  const auto message_of = [](ServerConfig c) -> std::string {
    try {
      c.validated();
    } catch (const ValidationError& e) {
      return e.what();
    }
    return {};
  };

  ServerConfig c;
  EXPECT_NO_THROW(c.validated());

  c = {};
  c.max_connections = 0;
  EXPECT_NE(message_of(c).find("max_connections"), std::string::npos);

  c = {};
  c.chunk_bytes = 0;
  EXPECT_NE(message_of(c).find("chunk_bytes"), std::string::npos);

  c = {};
  c.chunk_bytes = 1u << 30;  // over the frame limit
  EXPECT_NE(message_of(c).find("chunk_bytes"), std::string::npos);

  c = {};
  c.idle_timeout_ms = -1;
  EXPECT_NE(message_of(c).find("idle_timeout_ms"), std::string::npos);

  c = {};
  c.max_queued_bytes = 0;
  EXPECT_NE(message_of(c).find("max_queued_bytes"), std::string::npos);
}

}  // namespace
}  // namespace ipd
