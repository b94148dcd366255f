// Unit tests for src/net/: framing, message codec, loopback transport,
// fault injection, and full protocol sessions driven over the loopback
// pair (no sockets — the TCP path is covered by test_net_e2e.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <thread>

#include "core/checksum.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "delta/codec.hpp"
#include "net/delta_server.hpp"
#include "net/faulty_transport.hpp"
#include "net/loopback_transport.hpp"
#include "net/ota_client.hpp"
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

// ----------------------------------------------------------------- frame

TEST(Frame, RoundTripsThroughAnyChunking) {
  const Bytes payload = test::random_bytes(7, 1000);
  const Bytes wire = encode_frame(FrameType::kDeltaData, payload);
  for (const std::size_t step : {std::size_t{1}, std::size_t{7}, wire.size()}) {
    FrameReader reader;
    std::optional<Frame> frame;
    for (std::size_t pos = 0; pos < wire.size(); pos += step) {
      ASSERT_FALSE(frame.has_value());
      reader.feed(ByteView(wire).subspan(pos, std::min(step, wire.size() - pos)));
      if (!frame) frame = reader.next();
    }
    if (!frame) frame = reader.next();
    ASSERT_TRUE(frame.has_value()) << "step " << step;
    EXPECT_EQ(frame->type, FrameType::kDeltaData);
    EXPECT_TRUE(test::bytes_equal(payload, frame->payload));
    EXPECT_EQ(reader.buffered(), 0u);
    reader.finish();  // no partial frame left behind
  }
}

TEST(Frame, BackToBackFramesDecodeInOrder) {
  Bytes wire = encode_frame(FrameType::kHello, test::ramp_bytes(8));
  const Bytes second = encode_frame(FrameType::kMetricsReq, {});
  wire.insert(wire.end(), second.begin(), second.end());
  FrameReader reader;
  reader.feed(wire);
  ASSERT_EQ(reader.next()->type, FrameType::kHello);
  ASSERT_EQ(reader.next()->type, FrameType::kMetricsReq);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.frames_decoded(), 2u);
}

TEST(Frame, EveryFlippedBitIsCaughtSomewhere) {
  const Bytes wire = encode_frame(FrameType::kDeltaData, test::ramp_bytes(64));
  // Flip a bit in every byte of the frame. Most flips throw on next()
  // (bad magic / version / type / reserved / CRC); a flip in the length
  // field instead leaves the reader waiting for bytes that never come,
  // which finish() reports. No flip may yield a valid frame.
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    Bytes mangled = wire;
    mangled[byte] ^= 0x10;
    FrameReader reader;
    reader.feed(mangled);
    try {
      const std::optional<Frame> frame = reader.next();
      ASSERT_FALSE(frame.has_value()) << "byte " << byte
                                      << ": corrupt frame decoded";
      EXPECT_THROW(reader.finish(), FormatError) << "byte " << byte;
    } catch (const FormatError&) {
      // the common case: the corruption was detected outright
    }
  }
}

TEST(Frame, TruncatedStreamIsDetectedByFinish) {
  const Bytes wire = encode_frame(FrameType::kDeltaEnd, test::ramp_bytes(32));
  FrameReader reader;
  reader.feed(ByteView(wire).first(wire.size() - 3));
  EXPECT_FALSE(reader.next().has_value());  // waiting, not lying
  EXPECT_THROW(reader.finish(), FormatError);
}

TEST(Frame, OversizedPayloadLengthRejectedBeforeAllocation) {
  Bytes wire = encode_frame(FrameType::kDeltaData, test::ramp_bytes(8));
  wire[8] = 0xFF;  // payload length field -> far beyond kMaxFramePayload
  wire[9] = 0xFF;
  wire[10] = 0xFF;
  wire[11] = 0x7F;
  FrameReader reader;
  reader.feed(wire);
  EXPECT_THROW(reader.next(), FormatError);
  EXPECT_THROW(encode_frame(FrameType::kDeltaData,
                            Bytes(kMaxFramePayload + 1)),
               ValidationError);
}

// -------------------------------------------------------------- protocol

TEST(Protocol, EveryMessageRoundTrips) {
  DeltaBeginMsg begin;
  begin.from = 3;
  begin.to = 4;
  begin.full_image = 1;
  begin.last_hop = 1;
  begin.total_size = 123456789;
  begin.start_offset = 777;
  begin.reference_length = 1000;
  begin.version_length = 2000;
  begin.artifact_crc = 0xDEADBEEF;
  const Message messages[] = {
      HelloMsg{kProtocolVersion, 4096},
      HelloAckMsg{kProtocolVersion, 12, 11, 8192},
      GetDeltaMsg{2, 9},
      ResumeMsg{2, 3, 0x1'0000'0001ull, 0xCAFEF00D},
      begin,
      DeltaDataMsg{42, test::ramp_bytes(100)},
      DeltaEndMsg{100, 0x12345678},
      ErrorMsg{ErrorCode::kBadResume, "offset beyond artifact"},
      MetricsReqMsg{},
      MetricsMsg{"requests: 5\n"},
  };
  for (const Message& message : messages) {
    const Bytes wire = encode_message(message);
    FrameReader reader;
    reader.feed(wire);
    const std::optional<Frame> frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    const Message decoded = decode_message(*frame);
    EXPECT_EQ(decoded.index(), message.index());
  }
  // Spot-check field fidelity on the widest message.
  const Bytes wire = encode_message(begin);
  FrameReader reader;
  reader.feed(wire);
  const auto decoded = std::get<DeltaBeginMsg>(decode_message(*reader.next()));
  EXPECT_EQ(decoded.total_size, begin.total_size);
  EXPECT_EQ(decoded.start_offset, begin.start_offset);
  EXPECT_EQ(decoded.artifact_crc, begin.artifact_crc);
  EXPECT_EQ(decoded.version_length, begin.version_length);
}

TEST(Protocol, ShortPayloadRejected) {
  Frame frame;
  frame.type = FrameType::kGetDelta;
  frame.payload = test::ramp_bytes(3);  // needs 8
  EXPECT_THROW(decode_message(frame), FormatError);
}

// -------------------------------------------------------------- loopback

TEST(Loopback, BytesFlowBothWaysAndCloseMeansEof) {
  auto [a, b] = make_loopback_pair();
  a->write_all(test::ramp_bytes(10));
  Bytes buf(10);
  EXPECT_EQ(b->read_some(buf), 10u);
  b->write_all(ByteView(buf).first(4));
  Bytes back(16);
  EXPECT_EQ(a->read_some(back), 4u);
  a->close();
  EXPECT_EQ(b->read_some(buf), 0u);  // EOF after drain
  EXPECT_THROW(b->write_all(buf), TransportError);
}

TEST(Loopback, CloseWakesABlockedReader) {
  auto [a, b] = make_loopback_pair();
  std::thread reader([&] {
    Bytes buf(8);
    EXPECT_EQ(b->read_some(buf), 0u);
  });
  a->close();
  reader.join();
}

// ---------------------------------------------------------------- faulty

TEST(Faulty, FlippedWriteIsCaughtByFrameCrcOnTheOtherSide) {
  auto [a, b] = make_loopback_pair();
  FaultOptions faults;
  faults.seed = 99;
  faults.flip_rate = 1.0;
  faults.grace_ops = 0;
  FaultStats stats;
  FaultyTransport chaos(std::move(a), faults, &stats);
  chaos.write_all(encode_frame(FrameType::kHello, test::ramp_bytes(64)));
  EXPECT_EQ(stats.flips.load(), 1u);
  FramedConnection conn(*b);
  EXPECT_THROW(conn.receive(), FormatError);
}

TEST(Faulty, DropKillsTheConnectionAndPeerSeesTruncation) {
  auto [a, b] = make_loopback_pair();
  FaultOptions faults;
  faults.seed = 7;
  faults.drop_rate = 1.0;
  faults.grace_ops = 0;
  FaultStats stats;
  FaultyTransport chaos(std::move(a), faults, &stats);
  EXPECT_THROW(chaos.write_all(test::ramp_bytes(100)), TransportError);
  EXPECT_EQ(stats.drops.load(), 1u);
  // Connection stays dead.
  EXPECT_THROW(chaos.write_all(test::ramp_bytes(1)), TransportError);
  Bytes buf(8);
  EXPECT_EQ(b->read_some(buf), 0u);
}

TEST(Faulty, TruncationDeliversAPrefixThenEof) {
  auto [a, b] = make_loopback_pair();
  FaultOptions faults;
  faults.seed = 12;
  faults.truncate_rate = 1.0;
  faults.grace_ops = 0;
  FaultStats stats;
  FaultyTransport chaos(std::move(a), faults, &stats);
  const Bytes wire = encode_frame(FrameType::kDeltaData, test::ramp_bytes(500));
  EXPECT_THROW(chaos.write_all(wire), TransportError);
  EXPECT_EQ(stats.truncations.load(), 1u);
  // The receiver drains the prefix, hits EOF mid-frame, and the framing
  // layer reports the truncation instead of silently succeeding.
  FramedConnection conn(*b);
  EXPECT_THROW(conn.receive(), FormatError);
}

TEST(Faulty, GraceOpsLetTheHandshakeThrough) {
  auto [a, b] = make_loopback_pair();
  FaultOptions faults;
  faults.seed = 5;
  faults.drop_rate = 1.0;
  faults.grace_ops = 2;
  FaultyTransport chaos(std::move(a), faults, nullptr);
  chaos.write_all(test::ramp_bytes(4));  // op 1: safe
  chaos.write_all(test::ramp_bytes(4));  // op 2: safe
  EXPECT_THROW(chaos.write_all(test::ramp_bytes(4)), TransportError);
}

// ------------------------------------------------- session over loopback

struct LoopbackRig {
  VersionStore store;
  std::unique_ptr<DeltaService> service;
  std::unique_ptr<DeltaServer> server;
  std::vector<Bytes> history;

  explicit LoopbackRig(std::size_t releases, std::uint64_t seed = 33,
                       const ServerConfig& net = {}) {
    history = make_history(releases, seed);
    for (const Bytes& body : history) store.publish(body);
    service = std::make_unique<DeltaService>(store, ServiceOptions{});
    server = std::make_unique<DeltaServer>(*service, net);
  }

  /// Run one server session over a fresh loopback pair; returns the
  /// client end. Caller must close it before the rig dies.
  std::unique_ptr<Transport> connect(std::thread& session_thread) {
    auto [client_end, server_end] = make_loopback_pair();
    session_thread = std::thread(
        [this, server = std::move(server_end)]() mutable {
          this->server->serve_session(*server);
        });
    return std::move(client_end);
  }
};

TEST(Session, StreamingClientUpgradesOverLoopback) {
  LoopbackRig rig(4);
  std::vector<std::thread> sessions;
  OtaClientOptions options;
  options.max_chunk = 512;  // force many DELTA_DATA frames
  OtaClient client(
      [&] {
        sessions.emplace_back();
        return rig.connect(sessions.back());
      },
      options);
  Bytes image = rig.history[0];
  const OtaReport report = client.update_streaming(image, 0, 3);
  for (std::thread& t : sessions) t.join();
  EXPECT_TRUE(test::bytes_equal(rig.history[3], image));
  EXPECT_EQ(report.final_release, 3u);
  EXPECT_GE(report.hops, 1u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_GT(rig.service->metrics().net_sessions.load(), 0u);
  EXPECT_GT(rig.service->metrics().net_bytes_sent.load(), 0u);
}

TEST(Session, BadReleaseIdsGetTypedErrorsAndSessionSurvives) {
  LoopbackRig rig(3);
  std::thread session;
  auto transport = rig.connect(session);
  FramedConnection conn(*transport);
  conn.send(HelloMsg{});
  ASSERT_TRUE(std::holds_alternative<HelloAckMsg>(*conn.receive()));
  conn.send(GetDeltaMsg{2, 2});  // from == to
  auto err = std::get<ErrorMsg>(*conn.receive());
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  conn.send(GetDeltaMsg{0, 99});  // unknown release
  err = std::get<ErrorMsg>(*conn.receive());
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  // Session still alive and useful after both errors.
  conn.send(GetDeltaMsg{0, 1});
  EXPECT_TRUE(std::holds_alternative<DeltaBeginMsg>(*conn.receive()));
  transport->close();
  session.join();
  EXPECT_EQ(rig.service->metrics().net_errors.load(), 2u);
}

TEST(Session, ResumeSkipsAlreadyTransferredBytes) {
  LoopbackRig rig(2);
  ServiceMetrics& metrics = rig.service->metrics();

  // First session: take DELTA_BEGIN plus one chunk, then vanish.
  std::thread first_session;
  auto first = rig.connect(first_session);
  DeltaBeginMsg meta;
  std::uint64_t got = 0;
  {
    FramedConnection conn(*first);
    conn.send(HelloMsg{kProtocolVersion, 256});
    ASSERT_TRUE(std::holds_alternative<HelloAckMsg>(*conn.receive()));
    conn.send(GetDeltaMsg{0, 1});
    meta = std::get<DeltaBeginMsg>(*conn.receive());
    const auto chunk = std::get<DeltaDataMsg>(*conn.receive());
    got = chunk.data.size();
    ASSERT_LT(got, meta.total_size);  // multi-chunk transfer
  }
  first->close();
  first_session.join();

  // Second session: resume from where we died.
  std::thread second_session;
  auto second = rig.connect(second_session);
  {
    FramedConnection conn(*second);
    conn.send(HelloMsg{kProtocolVersion, 256});
    ASSERT_TRUE(std::holds_alternative<HelloAckMsg>(*conn.receive()));
    conn.send(ResumeMsg{0, meta.to, got, meta.artifact_crc});
    const auto begin = std::get<DeltaBeginMsg>(*conn.receive());
    EXPECT_EQ(begin.start_offset, got);
    EXPECT_EQ(begin.artifact_crc, meta.artifact_crc);
    std::uint64_t received = got;
    for (;;) {
      const Message message = *conn.receive();
      if (const auto* data = std::get_if<DeltaDataMsg>(&message)) {
        EXPECT_EQ(data->offset, received);
        received += data->data.size();
        continue;
      }
      const auto end = std::get<DeltaEndMsg>(message);
      EXPECT_EQ(end.total_size, received);
      break;
    }
    EXPECT_EQ(received, meta.total_size);
  }
  second->close();
  second_session.join();
  EXPECT_EQ(metrics.net_resumes.load(), 1u);

  // A resume whose CRC matches nothing is refused.
  std::thread third_session;
  auto third = rig.connect(third_session);
  {
    FramedConnection conn(*third);
    conn.send(HelloMsg{});
    ASSERT_TRUE(std::holds_alternative<HelloAckMsg>(*conn.receive()));
    conn.send(ResumeMsg{0, meta.to, 1, meta.artifact_crc ^ 0xFF});
    const auto err = std::get<ErrorMsg>(*conn.receive());
    EXPECT_EQ(err.code, ErrorCode::kBadResume);
  }
  third->close();
  third_session.join();
}

TEST(Session, FullImageOverrunIsRejectedBeforeTheCopy) {
  // A hostile (or broken) server that streams more bytes than its
  // DELTA_BEGIN announced must hit a typed protocol error, never the
  // raw memcpy past the image buffer it would have caused.
  auto [client_end, server_end] = make_loopback_pair();
  std::thread evil([server = std::move(server_end)]() mutable {
    try {
      FramedConnection conn(*server);
      (void)conn.receive();  // HELLO
      conn.send(HelloAckMsg{});
      (void)conn.receive();  // GET_DELTA
      DeltaBeginMsg begin;
      begin.from = 0;
      begin.to = 1;
      begin.full_image = 1;
      begin.total_size = 64;
      begin.version_length = 64;
      conn.send(begin);
      // Announce 64 bytes, stream 4096.
      conn.send(DeltaDataMsg{0, Bytes(4096, 0x5A)});
      conn.send(DeltaEndMsg{4096, 0});
    } catch (const Error&) {
      // the client hung up on us mid-lie — expected
    }
    server->close();
  });
  OtaClientOptions options;
  options.max_attempts = 1;
  OtaClient client(
      [&]() -> std::unique_ptr<Transport> { return std::move(client_end); },
      options);
  Bytes image(32, 0x00);
  try {
    client.update_streaming(image, 0, 1);
    FAIL() << "oversized stream was accepted";
  } catch (const Error& e) {
    // The overrun must be refused up front, not discovered later as a
    // checksum mismatch over a trampled heap.
    EXPECT_NE(std::string(e.what()).find("overruns"), std::string::npos)
        << e.what();
  }
  evil.join();
}

TEST(Session, StagedFullImageCannotOverwriteTheApplyJournal) {
  // A full image longer than the image area would land on the apply
  // journal: the staged client must refuse it before the flash write,
  // as the streaming updater does, not just check total storage size.
  constexpr std::size_t kImageArea = 16 << 10;
  constexpr JournalRegion kJournal{kImageArea, 16 << 10};
  const Bytes image = test::random_bytes(77, kImageArea + 4096);
  auto [client_end, server_end] = make_loopback_pair();
  std::thread oversized([server = std::move(server_end), &image]() mutable {
    try {
      FramedConnection conn(*server);
      (void)conn.receive();  // HELLO
      conn.send(HelloAckMsg{});
      (void)conn.receive();  // GET_DELTA
      DeltaBeginMsg begin;
      begin.from = 0;
      begin.to = 1;
      begin.last_hop = 1;
      begin.full_image = 1;
      begin.total_size = image.size();
      begin.version_length = image.size();
      begin.artifact_crc = crc32c(image);
      conn.send(begin);
      conn.send(DeltaDataMsg{0, image});
      conn.send(DeltaEndMsg{image.size(), crc32c(image)});
    } catch (const Error&) {
      // the client hung up on us — expected
    }
    server->close();
  });

  OtaClientOptions options;
  options.max_attempts = 1;
  OtaClient client(
      [&]() -> std::unique_ptr<Transport> { return std::move(client_end); },
      options);
  FlashDevice device(kImageArea + kJournal.size, 512, 96 << 10);
  device.load_image(test::random_bytes(78, kImageArea));
  clear_journal(device, kJournal);
  const Bytes journal_before(
      device.inspect().begin() + kJournal.offset,
      device.inspect().begin() + kJournal.offset + kJournal.size);
  EXPECT_THROW(client.update_device(device, kJournal, 0, 1, channel_28k()),
               DeviceError);
  oversized.join();
  EXPECT_TRUE(test::bytes_equal(
      journal_before, ByteView(device.inspect()).subspan(kJournal.offset)));
}

TEST(Session, RefusedResumeRestartsTheDownloadFromScratch) {
  LoopbackRig rig(2);
  std::vector<std::thread> sessions;
  OtaClientOptions options;
  options.backoff_initial_ms = 0;
  options.backoff_max_ms = 0;
  OtaClient client(
      [&] {
        sessions.emplace_back();
        return rig.connect(sessions.back());
      },
      options);

  constexpr std::size_t kImageArea = 64 << 10;
  constexpr JournalRegion kJournal{kImageArea, 16 << 10};
  FlashDevice device(kImageArea + kJournal.size, 512, 96 << 10);
  device.load_image(rig.history[0]);
  clear_journal(device, kJournal);

  // A journal from a previous life whose artifact no longer exists
  // anywhere on the server: the resume is answered with kBadResume
  // ("restart from GET_DELTA"), and the client must discard the stale
  // prefix and complete the update from scratch instead of failing.
  TransferJournal journal;
  journal.active = true;
  journal.from = 0;
  journal.hop_to = 1;
  journal.total_size = 4096;
  journal.artifact_crc = 0xBAD0BAD0;
  journal.received.assign(1024, 0x7E);

  const OtaReport report =
      client.update_device(device, kJournal, 0, 1, channel_28k(), &journal);
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(report.final_release, 1u);
  EXPECT_EQ(report.resumes, 1u);  // the refused attempt
  EXPECT_GE(report.retries, 1u);  // ... counted as an attempt
  EXPECT_TRUE(test::bytes_equal(
      rig.history[1],
      ByteView(device.inspect()).first(rig.history[1].size())));
}

TEST(Session, MetricsRequestReturnsTheSnapshot) {
  LoopbackRig rig(2);
  std::vector<std::thread> sessions;
  OtaClient client([&] {
    sessions.emplace_back();
    return rig.connect(sessions.back());
  });
  const std::string text = client.fetch_metrics();
  for (std::thread& t : sessions) t.join();
  EXPECT_NE(text.find("net_sessions:"), std::string::npos);
  EXPECT_NE(text.find("bytes cached:"), std::string::npos);
}

TEST(Session, StreamingClientSurvivesInjectedFaults) {
  LoopbackRig rig(4);
  FaultStats stats;
  std::vector<std::thread> sessions;
  OtaClientOptions options;
  options.max_chunk = 1024;
  options.max_attempts = 64;
  options.backoff_initial_ms = 0;  // loopback: no need to actually sleep
  options.backoff_max_ms = 0;
  OtaClient client(
      [&]() -> std::unique_ptr<Transport> {
        sessions.emplace_back();
        FaultOptions faults;
        faults.seed = 0xFA017 + sessions.size();  // new faults per attempt
        if (sessions.size() <= 2) {
          // The first two connections die mid-transfer at a fixed byte
          // count — a deterministic guarantee that recovery is exercised.
          faults.kill_after_bytes = 700;
        } else {
          faults.drop_rate = 0.05;
          faults.truncate_rate = 0.05;
          faults.flip_rate = 0.05;
          faults.grace_ops = 4;
        }
        return std::make_unique<FaultyTransport>(
            rig.connect(sessions.back()), faults, &stats);
      },
      options, &rig.service->metrics());
  Bytes image = rig.history[0];
  const OtaReport report = client.update_streaming(image, 0, 3);
  for (std::thread& t : sessions) t.join();
  EXPECT_TRUE(test::bytes_equal(rig.history[3], image));
  EXPECT_GT(stats.total(), 0u) << "fault injection never fired";
  EXPECT_GE(report.retries, 2u);  // the two deterministic kills
  EXPECT_EQ(report.retries, rig.service->metrics().net_retries.load());
}

TEST(Session, HostileInPlaceDeltaIsRefusedBeforeAnyFlashWrite) {
  // A server streaming a conflicting "in-place" delta: the frames and
  // the whole-artifact CRC all check out — the bytes arrive exactly as
  // sent — but applying the script in place would destroy reference
  // bytes before they are read. The device-side static verifier must
  // refuse it before the first flash write.
  Rng rng(0xEB11);
  const Bytes ref = generate_file(rng, 8 << 10, FileProfile::kBinary);
  const length_t half = ref.size() / 2;
  DeltaFile file;
  file.format = kVarintExplicit;
  file.in_place = true;  // the lie
  file.reference_length = ref.size();
  file.version_length = ref.size();
  file.script.push(CopyCommand{half, 0, half});  // writes what...
  file.script.push(CopyCommand{0, half, half});  // ...this one reads
  const Bytes evil = serialize_delta(file);

  auto [client_end, server_end] = make_loopback_pair();
  std::thread hostile([server = std::move(server_end),
                       evil = evil]() mutable {
    try {
      FramedConnection conn(*server);
      (void)conn.receive();  // HELLO
      conn.send(HelloAckMsg{});
      (void)conn.receive();  // GET_DELTA
      DeltaBeginMsg begin;
      begin.from = 0;
      begin.to = 1;
      begin.last_hop = 1;
      begin.total_size = evil.size();
      begin.reference_length = evil.size();
      begin.version_length = evil.size();
      begin.artifact_crc = crc32c(evil);
      conn.send(begin);
      conn.send(DeltaDataMsg{0, evil});
      conn.send(DeltaEndMsg{evil.size(), crc32c(evil)});
    } catch (const Error&) {
      // the client hung up on us — expected
    }
    server->close();
  });

  ServiceMetrics metrics;
  OtaClientOptions options;
  options.max_attempts = 1;
  OtaClient client(
      [&]() -> std::unique_ptr<Transport> { return std::move(client_end); },
      options, &metrics);

  constexpr std::size_t kImageArea = 16 << 10;
  constexpr JournalRegion kJournal{kImageArea, 16 << 10};
  FlashDevice device(kImageArea + kJournal.size, 512, 96 << 10);
  device.load_image(ref);
  clear_journal(device, kJournal);

  TransferJournal journal;
  try {
    client.update_device(device, kJournal, 0, 1, channel_28k(), &journal);
    FAIL() << "hostile in-place delta was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsafe delta refused"),
              std::string::npos)
        << e.what();
  }
  hostile.join();
  EXPECT_EQ(metrics.verify_rejects.load(), 1u);
  // The artifact was refused before apply: the image is untouched, and
  // the poisoned download will never be resumed.
  EXPECT_TRUE(
      test::bytes_equal(ref, ByteView(device.inspect()).first(ref.size())));
  EXPECT_FALSE(journal.active);
}

// ------------------------------------------------------- wire pinning

/// Transport decorator that decodes what the client writes and logs
/// every transfer request: "GET from->to" and "RESUME from->to @offset
/// crc". Sits outside the FaultyTransport, so it logs what the client
/// meant to send on every attempt.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(std::unique_ptr<Transport> inner,
                     std::vector<std::string>& log)
      : inner_(std::move(inner)), log_(log) {}

  std::size_t read_some(MutByteView out) override {
    return inner_->read_some(out);
  }
  void write_all(ByteView data) override {
    reader_.feed(data);
    while (const std::optional<Frame> frame = reader_.next()) {
      const Message message = decode_message(*frame);
      if (const auto* get = std::get_if<GetDeltaMsg>(&message)) {
        log_.push_back("GET " + std::to_string(get->from) + "->" +
                       std::to_string(get->to));
      } else if (const auto* resume = std::get_if<ResumeMsg>(&message)) {
        char crc[16];
        std::snprintf(crc, sizeof crc, "%08x", resume->artifact_crc);
        log_.push_back("RESUME " + std::to_string(resume->from) + "->" +
                       std::to_string(resume->to) + " @" +
                       std::to_string(resume->offset) + " " + crc);
      }
    }
    inner_->write_all(data);
  }
  void close() noexcept override { inner_->close(); }
  void set_read_timeout(int ms) override { inner_->set_read_timeout(ms); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::vector<std::string>& log_;
  FrameReader reader_;
};

/// One pinned run: the requests the client sent and its report.
struct WireRun {
  std::vector<std::string> requests;
  OtaReport report;

  std::string counters() const {
    return "retries=" + std::to_string(report.retries) +
           " resumes=" + std::to_string(report.resumes) +
           " bytes_received=" + std::to_string(report.bytes_received) +
           " artifact_bytes=" + std::to_string(report.artifact_bytes) +
           " hops=" + std::to_string(report.hops) +
           " final=" + std::to_string(report.final_release);
  }
};

/// Run `update` against a 4-release loopback rig whose first three
/// connections die after a fixed byte budget each (kill_after_bytes
/// counts bytes, not reads, so the cut points do not depend on how the
/// loopback chunks the stream); later connections are clean.
template <typename Update>
WireRun run_pinned(Update update) {
  LoopbackRig rig(4);
  WireRun run;
  std::vector<std::thread> sessions;
  OtaClientOptions options;
  options.max_chunk = 512;
  options.backoff_initial_ms = 0;
  options.backoff_max_ms = 0;
  OtaClient client(
      [&]() -> std::unique_ptr<Transport> {
        sessions.emplace_back();
        FaultOptions faults;
        faults.seed = 0x91E0 + sessions.size();
        static constexpr std::uint64_t kKills[] = {1500, 2600, 2600};
        if (sessions.size() <= std::size(kKills)) {
          faults.kill_after_bytes = kKills[sessions.size() - 1];
        }
        return std::make_unique<RecordingTransport>(
            std::make_unique<FaultyTransport>(rig.connect(sessions.back()),
                                              faults),
            run.requests);
      },
      options);
  run.report = update(client, rig.history);
  for (std::thread& t : sessions) t.join();
  return run;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// All three entry points see the same artifact and the same cuts, so
// they must send the same requests and count the same bytes.
constexpr const char* kPinnedRequests =
    "GET 0->3\n"
    "RESUME 0->3 @1024 907a8def\n"
    "RESUME 0->3 @3072 907a8def\n"
    "RESUME 0->3 @5120 907a8def\n";
constexpr const char* kPinnedCounters =
    "retries=3 resumes=3 bytes_received=6932 artifact_bytes=5374 hops=1 "
    "final=3";

constexpr std::size_t kPinImageArea = 64 << 10;
constexpr JournalRegion kPinJournal{kPinImageArea, 16 << 10};

TEST(WirePin, StreamingRequestsAndCountersArePinned) {
  Bytes image;
  const WireRun run =
      run_pinned([&](OtaClient& client, const std::vector<Bytes>& history) {
        image = history[0];
        return client.update_streaming(image, 0, 3);
      });
  EXPECT_EQ(joined(run.requests), kPinnedRequests);
  EXPECT_EQ(run.counters(), kPinnedCounters);
}

TEST(WirePin, StagedRequestsAndCountersArePinned) {
  FlashDevice device(kPinImageArea + kPinJournal.size, 512, 96 << 10);
  const WireRun run =
      run_pinned([&](OtaClient& client, const std::vector<Bytes>& history) {
        device.load_image(history[0]);
        clear_journal(device, kPinJournal);
        return client.update_device(device, kPinJournal, 0, 3,
                                    channel_28k());
      });
  EXPECT_EQ(joined(run.requests), kPinnedRequests);
  EXPECT_EQ(run.counters(), kPinnedCounters);
}

TEST(WirePin, DeviceStreamingRequestsAndCountersArePinned) {
  FlashDevice device(kPinImageArea + kPinJournal.size, 512, 96 << 10);
  const WireRun run =
      run_pinned([&](OtaClient& client, const std::vector<Bytes>& history) {
        device.load_image(history[0]);
        clear_journal(device, kPinJournal);
        return client.update_device_streaming(device, kPinJournal, 0, 3);
      });
  EXPECT_EQ(joined(run.requests), kPinnedRequests);
  EXPECT_EQ(run.counters(), kPinnedCounters);
}

TEST(WirePin, RefusedResumeRestartsOnlyTheStagedDownload) {
  // A stale transfer journal names an artifact the server no longer has:
  // the staged client sends RESUME, is refused, and restarts the hop
  // with GET_DELTA on the next attempt.
  FlashDevice device(kPinImageArea + kPinJournal.size, 512, 96 << 10);
  TransferJournal stale;
  stale.active = true;
  stale.from = 0;
  stale.hop_to = 3;
  stale.total_size = 4096;
  stale.artifact_crc = 0xBAD0BAD0;
  stale.received.assign(1024, 0x7E);
  const WireRun run =
      run_pinned([&](OtaClient& client, const std::vector<Bytes>& history) {
        device.load_image(history[0]);
        clear_journal(device, kPinJournal);
        return client.update_device(device, kPinJournal, 0, 3,
                                    channel_28k(), &stale);
      });
  EXPECT_EQ(joined(run.requests),
            "RESUME 0->3 @1024 bad0bad0\n"
            "GET 0->3\n"
            "RESUME 0->3 @2048 907a8def\n"
            "RESUME 0->3 @4096 907a8def\n");
  EXPECT_EQ(run.counters(),
            "retries=3 resumes=3 bytes_received=6823 artifact_bytes=5374 "
            "hops=1 final=3");
}

TEST(Session, PoisonedPreloadIsRefusedAndCleanUpgradeStillServes) {
  // End-to-end across the trust boundary on the *server* side: an
  // operator preloads a conflicting artifact whose header matches the
  // hop endpoints exactly. The service must refuse to cache it, and the
  // next wire client must get a freshly built, safe delta.
  LoopbackRig rig(2);
  DeltaFile file;
  file.format = kVarintExplicit;
  file.in_place = true;
  file.reference_length = rig.history[0].size();
  file.version_length = rig.history[1].size();
  file.version_crc = rig.store.content_key(1).crc;
  const length_t half =
      std::min(file.reference_length, file.version_length) / 2;
  file.script.push(CopyCommand{half, 0, half});
  file.script.push(CopyCommand{0, half, file.version_length - half});
  EXPECT_FALSE(rig.service->preload(0, 1, serialize_delta(file)));
  EXPECT_EQ(rig.service->metrics().verify_rejects.load(), 1u);

  std::vector<std::thread> sessions;
  OtaClient client([&] {
    sessions.emplace_back();
    return rig.connect(sessions.back());
  });
  Bytes image = rig.history[0];
  const OtaReport report = client.update_streaming(image, 0, 1);
  for (std::thread& t : sessions) t.join();
  EXPECT_TRUE(test::bytes_equal(rig.history[1], image));
  EXPECT_EQ(report.final_release, 1u);
  // Still exactly one rejection: the refused preload, not the build.
  EXPECT_EQ(rig.service->metrics().verify_rejects.load(), 1u);
}

}  // namespace
}  // namespace ipd
