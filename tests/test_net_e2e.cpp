// End-to-end acceptance tests (ctest label `net`): a DeltaServer on a
// real localhost TCP socket, upgraded against by a multi-threaded client
// fleet — clean links, fault-injected links, a client killed mid-transfer
// and resumed from its journal, the connection limit, and the device-mode
// power-failure story. Every path must end bit-identical to the release
// bytes reconstructed directly.
//
// Environments without localhost sockets (heavily sandboxed CI) make
// TcpListener::bind throw; these tests GTEST_SKIP in that case rather
// than fail.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "net/delta_server.hpp"
#include "net/faulty_transport.hpp"
#include "net/ota_client.hpp"
#include "net/tcp_transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

std::vector<Bytes> make_history(std::size_t releases, std::uint64_t seed,
                                std::size_t edits_per_release = 25,
                                length_t size = 24 << 10) {
  Rng rng(seed);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, size, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 48;
  for (std::size_t i = 1; i < releases; ++i) {
    history.push_back(mutate(history.back(), rng, edits_per_release, model));
  }
  return history;
}

/// A live TCP server over a published history, or skipped_ when the
/// sandbox forbids localhost sockets.
struct TcpRig {
  VersionStore store;
  std::unique_ptr<DeltaService> service;
  std::unique_ptr<DeltaServer> server;
  std::vector<Bytes> history;
  bool skipped = false;

  explicit TcpRig(std::size_t releases, std::uint64_t seed = 71,
                  ServerConfig net = {},
                  std::size_t edits_per_release = 25) {
    history = make_history(releases, seed, edits_per_release);
    for (const Bytes& body : history) store.publish(body);
    service = std::make_unique<DeltaService>(store, ServiceOptions{});
    server = std::make_unique<DeltaServer>(*service, net);
    try {
      server->start();
    } catch (const TransportError&) {
      skipped = true;
    }
  }

  OtaClient::TransportFactory factory() {
    return [port = server->port()] {
      return TcpTransport::connect("127.0.0.1", port);
    };
  }
};

#define SKIP_IF_NO_SOCKETS(rig)                              \
  if ((rig).skipped) {                                       \
    GTEST_SKIP() << "localhost sockets unavailable here";    \
  }

TEST(NetE2E, FleetUpgradesOverTcpBitIdentical) {
  TcpRig rig(5);
  SKIP_IF_NO_SOCKETS(rig);
  constexpr std::size_t kClients = 8;
  const ReleaseId target = static_cast<ReleaseId>(rig.history.size() - 1);

  std::vector<Bytes> images(kClients);
  std::vector<OtaReport> reports(kClients);
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < kClients; ++i) {
    fleet.emplace_back([&, i] {
      // Stragglers start at every release below the target.
      const ReleaseId start = static_cast<ReleaseId>(i % target);
      images[i] = rig.history[start];
      OtaClient client(rig.factory());
      try {
        reports[i] = client.update_streaming(images[i], start, target);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  EXPECT_EQ(failures.load(), 0u);
  for (std::size_t i = 0; i < kClients; ++i) {
    // Bit-identical to the release bytes reconstructed directly.
    EXPECT_TRUE(test::bytes_equal(rig.history[target], images[i]))
        << "client " << i;
    EXPECT_EQ(reports[i].final_release, target);
    EXPECT_EQ(reports[i].retries, 0u);
  }
  const ServiceMetrics& metrics = rig.service->metrics();
  EXPECT_GE(metrics.net_sessions.load(), kClients);
  EXPECT_GT(metrics.net_bytes_sent.load(), 0u);
  EXPECT_GT(metrics.net_frames_sent.load(), 0u);
}

TEST(NetE2E, FaultyFleetConvergesThroughRetryAndResume) {
  TcpRig rig(4);
  SKIP_IF_NO_SOCKETS(rig);
  constexpr std::size_t kClients = 6;
  const ReleaseId target = static_cast<ReleaseId>(rig.history.size() - 1);

  FaultStats stats;
  std::vector<Bytes> images(kClients);
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < kClients; ++i) {
    fleet.emplace_back([&, i] {
      images[i] = rig.history[0];
      std::atomic<std::uint64_t> attempt{0};
      OtaClientOptions options;
      options.max_chunk = 2048;  // more frames -> more fault exposure
      options.max_attempts = 128;
      options.backoff_initial_ms = 1;
      options.backoff_max_ms = 4;
      OtaClient client(
          [&rig, &stats, &attempt, i]() -> std::unique_ptr<Transport> {
            const std::uint64_t n = attempt.fetch_add(1);
            FaultOptions faults;
            faults.seed = 1000 * (i + 1) + n;
            if (n == 0) {
              // Every client's first link is guaranteed to die mid-
              // transfer; later links misbehave probabilistically.
              faults.kill_after_bytes = 900 + 100 * i;
            } else {
              faults.drop_rate = 0.05;
              faults.truncate_rate = 0.05;
              faults.flip_rate = 0.05;
              faults.grace_ops = 4;
            }
            return std::make_unique<FaultyTransport>(
                TcpTransport::connect("127.0.0.1", rig.server->port()),
                faults, &stats);
          },
          options, &rig.service->metrics());
      try {
        client.update_streaming(images[i], 0, target);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  EXPECT_EQ(failures.load(), 0u);
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_TRUE(test::bytes_equal(rig.history[target], images[i]))
        << "client " << i;
  }
  // The link really did misbehave, and every client still converged.
  EXPECT_GE(stats.total(), kClients) << "fault injection never fired";
  EXPECT_GE(rig.service->metrics().net_retries.load(), kClients);
}

TEST(NetE2E, KilledClientResumesFromJournaledOffset) {
  // Heavier edits -> a delta comfortably larger than the kill budget
  // below, so the first client always dies mid-transfer.
  TcpRig rig(2, /*seed=*/74, {}, /*edits_per_release=*/60);
  SKIP_IF_NO_SOCKETS(rig);
  constexpr std::size_t kImageArea = 64 << 10;
  constexpr JournalRegion kJournal{kImageArea, 16 << 10};
  FlashDevice device(kImageArea + kJournal.size, 512, 96 << 10);
  device.load_image(rig.history[0]);
  clear_journal(device, kJournal);

  // The journal lives with the caller (NVRAM), not the client.
  TransferJournal journal;

  // Client #1: its link dies a fixed number of bytes into the transfer
  // and never recovers (max_attempts = 1) — the "kill" is this client
  // being destroyed with the transfer incomplete.
  {
    OtaClientOptions options;
    options.max_chunk = 256;  // many small chunks before the link dies
    options.max_attempts = 1;
    OtaClient doomed(
        [&rig]() -> std::unique_ptr<Transport> {
          FaultOptions faults;
          faults.kill_after_bytes = 1500;  // handshake + a few chunks
          return std::make_unique<FaultyTransport>(
              TcpTransport::connect("127.0.0.1", rig.server->port()),
              faults, nullptr);
        },
        options);
    EXPECT_THROW(doomed.update_device(device, kJournal, 0, 1, &journal),
                 Error);
  }
  ASSERT_TRUE(journal.active);
  ASSERT_GT(journal.received.size(), 0u);
  ASSERT_LT(journal.received.size(), journal.total_size)
      << "fault fired too late to test resume";
  const std::uint64_t journaled_offset = journal.received.size();
  const std::uint64_t artifact_size = journal.total_size;

  // Client #2 ("after reboot"): a fresh client, same journal, clean link.
  OtaClient revived(rig.factory());
  const OtaReport report =
      revived.update_device(device, kJournal, 0, 1, &journal);
  EXPECT_EQ(report.final_release, 1u);
  EXPECT_EQ(report.resumes, 1u);
  EXPECT_GE(rig.service->metrics().net_resumes.load(), 1u);
  // Only the tail crossed the wire the second time: the journaled
  // prefix was not re-fetched.
  EXPECT_GT(journaled_offset, 512u);
  EXPECT_LT(report.bytes_received, artifact_size);
  EXPECT_TRUE(test::bytes_equal(
      rig.history[1], ByteView(device.inspect()).first(rig.history[1].size())));
}

TEST(NetE2E, StaleCurrentAfterRebootTrustsTheJournalForward) {
  // Regression: a device reboots between hops of a multi-hop upgrade.
  // Its caller re-invokes update_device with the *original* release id
  // (the boot firmware only knows what it shipped with), but the
  // transfer journal holds a later hop in flight. The journal must win
  // — requesting from the stale id would fetch a delta against bytes
  // the device no longer holds and corrupt the image.
  TcpRig rig(3, /*seed=*/75, {}, /*edits_per_release=*/60);
  SKIP_IF_NO_SOCKETS(rig);
  constexpr std::size_t kImageArea = 64 << 10;
  constexpr JournalRegion kJournal{kImageArea, 16 << 10};
  FlashDevice device(kImageArea + kJournal.size, 512, 96 << 10);
  device.load_image(rig.history[0]);
  clear_journal(device, kJournal);

  TransferJournal journal;

  // Hop 0 -> 1 completes cleanly.
  {
    OtaClient client(rig.factory());
    const OtaReport r =
        client.update_device(device, kJournal, 0, 1, &journal);
    ASSERT_EQ(r.final_release, 1u);
  }

  // Hop 1 -> 2: the link dies mid-download, stranding the journal with
  // a partial artifact for from=1.
  {
    OtaClientOptions options;
    options.max_chunk = 256;
    options.max_attempts = 1;
    OtaClient doomed(
        [&rig]() -> std::unique_ptr<Transport> {
          FaultOptions faults;
          faults.kill_after_bytes = 1500;
          return std::make_unique<FaultyTransport>(
              TcpTransport::connect("127.0.0.1", rig.server->port()), faults,
              nullptr);
        },
        options);
    EXPECT_THROW(
        doomed.update_device(device, kJournal, 1, 2, &journal),
        Error);
  }
  ASSERT_TRUE(journal.active);
  ASSERT_EQ(journal.from, 1u);
  ASSERT_LT(journal.received.size(), journal.total_size)
      << "fault fired too late to test the stale-current resume";

  // "Reboot": a fresh client is handed the STALE current = 0. The
  // journaled hop (from = 1) must be resumed and finished first.
  OtaClient revived(rig.factory());
  const OtaReport report =
      revived.update_device(device, kJournal, 0, 2, &journal);
  EXPECT_EQ(report.final_release, 2u);
  EXPECT_GE(report.resumes, 1u);
  EXPECT_TRUE(test::bytes_equal(
      rig.history[2], ByteView(device.inspect()).first(rig.history[2].size())));
}

TEST(NetE2E, PowerFailureMidApplyResumesBothJournals) {
  TcpRig rig(2, /*seed=*/72);
  SKIP_IF_NO_SOCKETS(rig);
  constexpr std::size_t kImageArea = 64 << 10;
  constexpr JournalRegion kJournal{kImageArea, 16 << 10};
  FlashDevice device(kImageArea + kJournal.size, 512, 96 << 10);
  device.load_image(rig.history[0]);
  clear_journal(device, kJournal);

  TransferJournal journal;
  OtaClient client(rig.factory());

  // Cut the power a little into the apply. The download completes first
  // (it only reads), so the journal holds the whole artifact when the
  // failure hits.
  device.inject_power_failure_after(4096);
  try {
    client.update_device(device, kJournal, 0, 1, &journal);
    FAIL() << "expected the injected power failure";
  } catch (const FlashDevice::PowerFailure&) {
  }
  ASSERT_TRUE(journal.active);
  EXPECT_EQ(journal.received.size(), journal.total_size);

  // Reboot: same device, same journals. The download is skipped (the
  // transfer journal is complete) and the flash journal resumes the
  // apply mid-delta.
  device.clear_power_failure();
  const std::uint64_t wire_before = rig.service->metrics().net_bytes_sent.load();
  const OtaReport report =
      client.update_device(device, kJournal, 0, 1, &journal);
  EXPECT_EQ(report.final_release, 1u);
  EXPECT_EQ(rig.service->metrics().net_bytes_sent.load(), wire_before)
      << "resume after power failure re-downloaded the artifact";
  EXPECT_TRUE(test::bytes_equal(
      rig.history[1], ByteView(device.inspect()).first(rig.history[1].size())));
}

TEST(NetE2E, RestartedServerAcceptsConnectionsAgain) {
  TcpRig rig(2);
  SKIP_IF_NO_SOCKETS(rig);
  {
    OtaClient client(rig.factory());
    EXPECT_NE(client.fetch_stats().find("ipdelta_net_sessions "),
              std::string::npos);
  }
  rig.server->stop();
  rig.server->start();
  // stop() raises the internal stopping flag; a restarted server must
  // accept sessions again, not answer each with ERROR{kBusy}. The
  // factory is rebuilt because the ephemeral port may have changed.
  OtaClient client(rig.factory());
  EXPECT_NE(client.fetch_stats().find("ipdelta_net_sessions "),
            std::string::npos);
}

TEST(NetE2E, ConnectionLimitShedsWithTypedErrorAndRecovers) {
  ServerConfig net;
  net.max_connections = 1;
  TcpRig rig(2, /*seed=*/73, net);
  SKIP_IF_NO_SOCKETS(rig);

  // Occupy the only slot.
  auto holder = TcpTransport::connect("127.0.0.1", rig.server->port());
  FramedConnection held(*holder);
  held.send(HelloMsg{});
  ASSERT_TRUE(std::holds_alternative<HelloAckMsg>(*held.receive()));

  // Second connection: the reactor sheds it at accept with a typed
  // ERROR{kShed} and hangs up — never a silent stall.
  {
    auto second = TcpTransport::connect("127.0.0.1", rig.server->port());
    FramedConnection conn(*second);
    const std::optional<Message> reply = conn.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(std::get<ErrorMsg>(*reply).code, ErrorCode::kShed);
  }
  EXPECT_GE(rig.service->metrics().net_rejected.load(), 1u);
  EXPECT_GE(rig.service->metrics().net_shed.load(), 1u);

  // Free the slot. The server notices the hang-up asynchronously, so
  // poll: fetch_stats() throws retryable errors while the slot is
  // still occupied.
  holder->close();
  std::string text;
  for (int i = 0; i < 100 && text.empty(); ++i) {
    try {
      OtaClient client(rig.factory());
      text = client.fetch_stats();
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_NE(text.find("ipdelta_net_sessions "), std::string::npos);
}

TEST(NetE2E, StatsServedMidLoadNamesEveryMetric) {
  TcpRig rig(4);
  SKIP_IF_NO_SOCKETS(rig);
  const ReleaseId target = static_cast<ReleaseId>(rig.history.size() - 1);

  // A background fleet keeps the serve and transfer paths hot while the
  // scraper hits the STATS endpoint: the exposition must be servable
  // concurrently with real traffic, not only from a quiesced server.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < 3; ++i) {
    fleet.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Bytes image = rig.history[0];
        OtaClient client(rig.factory());
        try {
          client.update_streaming(image, 0, target);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }

  std::string text;
  for (int attempt = 0; attempt < 100 && text.empty(); ++attempt) {
    try {
      OtaClient scraper(rig.factory());
      text = scraper.fetch_stats();
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : fleet) t.join();

  ASSERT_FALSE(text.empty()) << "STATS never answered under load";
  EXPECT_EQ(failures.load(), 0u);
  // Every ServiceMetrics counter appears, by its registry name.
  rig.service->metrics().visit([&](const char* name, const auto&) {
    EXPECT_NE(text.find("ipdelta_" + std::string(name) + " "),
              std::string::npos)
        << name;
  });
  // Every registered histogram renders as a summary with quantiles.
  std::size_t summaries = 0;
  rig.service->histograms().visit(
      [&](const char* name, const obs::Histogram&) {
        ++summaries;
        EXPECT_NE(
            text.find("ipdelta_" + std::string(name) + "{quantile=\"0.5\"}"),
            std::string::npos)
            << name;
      });
  EXPECT_GE(summaries, 4u);
  // The serve path really ran while we scraped, so its histogram and
  // the per-stage aggregates carry live data.
  EXPECT_NE(text.find("ipdelta_stage_ns{stage=\"serve\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ipdelta_cache_bytes_held"), std::string::npos);
}

// Regression: started_ used to sit outside the sessions mutex, so two
// threads racing start() could both pass the check and fight over the
// listener/pool/accept-thread members. start() is now exclusive under
// the lock: of N concurrent callers exactly one wins, the rest get
// "already started", and a stopped server starts again cleanly.
TEST(NetE2E, ConcurrentStartAdmitsExactlyOneCaller) {
  TcpRig rig(2);
  SKIP_IF_NO_SOCKETS(rig);
  rig.server->stop();

  for (int round = 0; round < 20; ++round) {
    constexpr int kCallers = 4;
    std::atomic<int> winners{0};
    std::atomic<int> refused{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kCallers; ++i) {
      threads.emplace_back([&] {
        try {
          rig.server->start();
          winners.fetch_add(1);
        } catch (const Error&) {
          refused.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(refused.load(), kCallers - 1) << "round " << round;
    rig.server->stop();
  }
}

// ---- distributed tracing over the wire ------------------------------

/// Every (stage name, args.trace hex) pair in a trace_events_json()
/// document — the events are serialized one object at a time, so the
/// trace id for a span (when present) sits between its "name" key and
/// the next event's.
std::vector<std::pair<std::string, std::string>> span_traces(
    const std::string& json) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::string name_key = "\"name\":\"";
  for (std::size_t at = json.find(name_key); at != std::string::npos;) {
    const std::size_t name_begin = at + name_key.size();
    const std::size_t name_end = json.find('"', name_begin);
    const std::size_t next = json.find(name_key, name_end);
    const std::size_t tr = json.find("\"trace\":\"", name_end);
    std::string trace;
    if (tr != std::string::npos && (next == std::string::npos || tr < next)) {
      trace = json.substr(tr + 9, 32);
    }
    out.emplace_back(json.substr(name_begin, name_end - name_begin), trace);
    at = next;
  }
  return out;
}

std::string trace_of(
    const std::vector<std::pair<std::string, std::string>>& spans,
    const std::string& stage) {
  for (const auto& [name, trace] : spans) {
    if (name == stage && !trace.empty()) return trace;
  }
  return {};
}

TEST(NetE2E, RequestServeAndTransferSpansShareOneTraceId) {
  TcpRig rig(3);
  SKIP_IF_NO_SOCKETS(rig);
  const ReleaseId target = static_cast<ReleaseId>(rig.history.size() - 1);

  // Client and server live in one process here, so one collector sees
  // both sides; the genuinely-two-process version of this assertion
  // (separate exports joined by `ipdelta trace --merge`) runs in
  // tests/test_cli.sh.
  obs::set_tracing(true);
  obs::clear_trace_events();
  Bytes image = rig.history[0];
  OtaClient client(rig.factory());
  client.update_streaming(image, 0, target);
  obs::set_tracing(false);
  const std::string json = obs::trace_events_json();
  obs::clear_trace_events();
  ASSERT_TRUE(test::bytes_equal(rig.history[target], image));

  const auto spans = span_traces(json);
  const std::string request_trace = trace_of(spans, "net_request");
  ASSERT_EQ(request_trace.size(), 32u)
      << "client request span missing its trace id";
  // The server-side spans for this update carry the SAME trace id: the
  // context crossed the wire in the frame extension, not thread-locals.
  EXPECT_EQ(trace_of(spans, "serve"), request_trace);
  EXPECT_EQ(trace_of(spans, "net_transfer"), request_trace);
}

TEST(NetE2E, V2SessionEchoesTraceContextInReplies) {
  TcpRig rig(2);
  SKIP_IF_NO_SOCKETS(rig);
  auto transport = TcpTransport::connect("127.0.0.1", rig.server->port());
  FramedConnection conn(*transport);
  conn.send(HelloMsg{kProtocolVersionTraced, 4096});
  const auto ack = std::get<HelloAckMsg>(*conn.receive());
  EXPECT_EQ(ack.protocol_version, kProtocolVersionTraced);

  const obs::TraceContext ctx = obs::mint_trace();
  conn.set_outbound_trace(ctx);
  conn.send(GetDeltaMsg{0, 1});
  const std::optional<Message> begin = conn.receive();
  ASSERT_TRUE(begin && std::holds_alternative<DeltaBeginMsg>(*begin));
  // The reply frame carries the server's context for OUR trace: same
  // 128-bit id, a server-side span parented under the request.
  const obs::TraceContext echoed = conn.inbound_trace();
  ASSERT_TRUE(echoed.valid());
  EXPECT_EQ(echoed.trace_hi, ctx.trace_hi);
  EXPECT_EQ(echoed.trace_lo, ctx.trace_lo);
  EXPECT_NE(echoed.span_id, ctx.span_id);
  transport->close();
}

TEST(NetE2E, V1SessionInteroperatesWithNoTraceExtension) {
  TcpRig rig(2);
  SKIP_IF_NO_SOCKETS(rig);
  // An old client speaks protocol v1 and knows nothing of the frame
  // trace flag; the new server must answer v1 exactly as before.
  auto transport = TcpTransport::connect("127.0.0.1", rig.server->port());
  FramedConnection conn(*transport);
  conn.send(HelloMsg{kProtocolVersion, 4096});
  const auto ack = std::get<HelloAckMsg>(*conn.receive());
  EXPECT_EQ(ack.protocol_version, kProtocolVersion);
  conn.send(GetDeltaMsg{0, 1});
  const std::optional<Message> begin = conn.receive();
  ASSERT_TRUE(begin && std::holds_alternative<DeltaBeginMsg>(*begin));
  EXPECT_FALSE(conn.inbound_trace().valid())
      << "a v1 session must never see the trace extension";
  transport->close();
}

TEST(NetE2E, NewClientDowngradesStickilyAgainstAnOldServer) {
  // A pre-trace server: rejects any HELLO version it does not know with
  // ERROR{kProtocol} (exactly what the reactor does), acks v1, and
  // answers STATS_REQ. The new client must downgrade, reconnect
  // speaking v1 — and remember the downgrade on later connections.
  std::unique_ptr<TcpListener> listener;
  try {
    listener = std::make_unique<TcpListener>(0);
  } catch (const TransportError&) {
    GTEST_SKIP() << "localhost sockets unavailable here";
  }
  std::atomic<int> hellos_seen{0};
  std::atomic<int> rejected{0};
  std::thread old_server([&] {
    while (std::unique_ptr<TcpTransport> t = listener->accept()) {
      try {
        FramedConnection conn(*t);
        const std::optional<Message> msg = conn.receive();
        const auto* hello = msg ? std::get_if<HelloMsg>(&*msg) : nullptr;
        if (hello == nullptr) continue;
        hellos_seen.fetch_add(1);
        if (hello->protocol_version != kProtocolVersion) {
          rejected.fetch_add(1);
          conn.send(ErrorMsg{ErrorCode::kProtocol,
                             "unsupported protocol version"});
          continue;
        }
        HelloAckMsg ack;
        ack.protocol_version = kProtocolVersion;
        ack.release_count = 2;
        ack.latest = 1;
        ack.chunk = 4096;
        conn.send(ack);
        const std::optional<Message> req = conn.receive();
        if (req && std::holds_alternative<StatsReqMsg>(*req)) {
          conn.send(StatsMsg{"ipdelta_net_sessions 1\n"});
        }
      } catch (const Error&) {
        // a half-closed connection is the client's business
      }
    }
  });

  OtaClient client([port = listener->port()] {
    return TcpTransport::connect("127.0.0.1", port);
  });
  // First call: v2 offer refused, downgrade, v1 succeeds (2 connects).
  EXPECT_NE(client.fetch_stats().find("net_sessions"), std::string::npos);
  // Second call: the downgrade stuck, so v1 straight away (1 connect).
  EXPECT_NE(client.fetch_stats().find("net_sessions"), std::string::npos);
  listener->close();
  old_server.join();
  EXPECT_EQ(rejected.load(), 1);
  EXPECT_EQ(hellos_seen.load(), 3);
}

TEST(NetE2E, ExhaustedAttemptsDumpTheFlightRecorder) {
  TcpRig rig(2);
  SKIP_IF_NO_SOCKETS(rig);
  obs::clear_flight_dumps();
  OtaClientOptions options;
  options.max_attempts = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  // Every link dies almost immediately: the update runs out of attempts
  // and the abort path must leave a flight record for the post-mortem.
  OtaClient doomed(
      [&rig]() -> std::unique_ptr<Transport> {
        FaultOptions faults;
        faults.kill_after_bytes = 64;
        return std::make_unique<FaultyTransport>(
            TcpTransport::connect("127.0.0.1", rig.server->port()), faults,
            nullptr);
      },
      options);
  Bytes image = rig.history[0];
  EXPECT_THROW(doomed.update_streaming(image, 0, 1), Error);
  const std::vector<obs::FlightDump> dumps = obs::flight_dumps();
  ASSERT_FALSE(dumps.empty()) << "transfer abort left no flight record";
  EXPECT_NE(dumps.back().reason.find("attempts exhausted"),
            std::string::npos);
  EXPECT_NE(dumps.back().label.find("ota:stream"), std::string::npos);
  // The dump is keyed by the update's trace id even with tracing off.
  EXPECT_EQ(dumps.back().trace_id.size(), 32u);
  obs::clear_flight_dumps();
}

}  // namespace
}  // namespace ipd
