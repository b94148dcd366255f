#include "net/ota_client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <variant>

#include "apply/stream_applier.hpp"
#include "core/checksum.hpp"
#include "obs/event_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/watchdog.hpp"
#include "verify/verifier.hpp"

namespace ipd {

namespace {

/// The server refused a RESUME: the artifact changed since the transfer
/// started and it advises restarting from GET_DELTA. Recoverable only
/// where nothing has been applied yet (HopSink::restart): the download
/// discards its journal and re-requests; the in-place sinks let it
/// escape as a fatal Error.
class BadResumeError : public Error {
 public:
  using Error::Error;
};

/// Receive one message, translating the failure modes: clean EOF and
/// server-busy are retryable (TransportError); a refused resume is
/// BadResumeError (recoverable only by restarting the transfer); any
/// other ERROR frame is a permanent protocol answer and escapes the
/// retry loop as Error.
Message expect_message(FramedConnection& conn) {
  std::optional<Message> message = conn.receive();
  if (!message) {
    throw TransportError(NetErrc::kPeerClosed,
                         "server closed the connection mid-conversation");
  }
  if (const auto* err = std::get_if<ErrorMsg>(&*message)) {
    if (err->code == ErrorCode::kBusy) {
      throw TransportError(NetErrc::kBusy, "server busy: " + err->message);
    }
    if (err->code == ErrorCode::kShed) {
      throw TransportError(NetErrc::kShed,
                           "server shedding load: " + err->message);
    }
    if (err->code == ErrorCode::kBadResume) {
      throw BadResumeError("server refused resume: " + err->message);
    }
    throw Error("server error: " + err->message);
  }
  return std::move(*message);
}

template <typename T>
T expect(FramedConnection& conn, const char* what) {
  Message message = expect_message(conn);
  if (T* typed = std::get_if<T>(&message)) return std::move(*typed);
  throw Error(std::string("protocol violation: expected ") + what);
}

/// The update-level trace context: a child when a caller (campaign,
/// CLI) already opened a scope, a fresh root otherwise.
obs::TraceContext mint_update_trace() {
  const obs::TraceContext& outer = obs::current_trace();
  return outer.valid() ? obs::child_of(outer) : obs::mint_trace();
}

/// Dump the active flight recorder (if any) on a failure path.
void dump_active_flight(const char* reason) {
  if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
    obs::dump_flight(*fr, reason);
  }
}

}  // namespace

OtaClient::OtaClient(TransportFactory factory, const OtaClientOptions& options,
                     ServiceMetrics* metrics)
    : factory_(std::move(factory)), options_(options), metrics_(metrics) {}

OtaClient::Session OtaClient::connect_session() {
  for (;;) {
    Session session;
    session.transport = factory_();
    if (session.transport == nullptr) {
      throw TransportError(NetErrc::kNoTransport,
                           "transport factory returned no connection");
    }
    if (options_.read_timeout_ms > 0) {
      session.transport->set_read_timeout(options_.read_timeout_ms);
    }
    session.conn = std::make_unique<FramedConnection>(*session.transport);
    session.conn->send(HelloMsg{offer_version_, options_.max_chunk});

    // Receive the HELLO reply by hand rather than via expect<>: an old
    // server answers a kProtocolVersionTraced offer with
    // ERROR{kProtocol}, which must downgrade and reconnect, not escape
    // as a fatal Error.
    std::optional<Message> reply = session.conn->receive();
    if (!reply) {
      throw TransportError(NetErrc::kPeerClosed,
                           "server closed the connection mid-conversation");
    }
    if (const auto* err = std::get_if<ErrorMsg>(&*reply)) {
      if (err->code == ErrorCode::kProtocol &&
          offer_version_ > kProtocolVersion) {
        offer_version_ = kProtocolVersion;
        session.transport->close();
        continue;  // reconnect speaking v1
      }
      if (err->code == ErrorCode::kBusy) {
        throw TransportError(NetErrc::kBusy, "server busy: " + err->message);
      }
      if (err->code == ErrorCode::kShed) {
        throw TransportError(NetErrc::kShed,
                             "server shedding load: " + err->message);
      }
      throw Error("server error: " + err->message);
    }
    const auto* ack = std::get_if<HelloAckMsg>(&*reply);
    if (ack == nullptr) {
      throw Error("protocol violation: expected HELLO_ACK");
    }
    if (ack->protocol_version != offer_version_ &&
        ack->protocol_version != kProtocolVersion) {
      throw Error("server speaks protocol version " +
                  std::to_string(ack->protocol_version) + ", we offered " +
                  std::to_string(offer_version_));
    }
    session.traced = ack->protocol_version >= kProtocolVersionTraced;
    return session;
  }
}

void OtaClient::backoff(std::size_t attempt, OtaReport& report) {
  ++report.retries;
  if (metrics_ != nullptr) {
    metrics_->net_retries.fetch_add(1, std::memory_order_relaxed);
  }
  const int shift = attempt > 16 ? 16 : static_cast<int>(attempt);
  const long long ms =
      std::min<long long>(static_cast<long long>(options_.backoff_initial_ms)
                              << (shift - 1),
                          options_.backoff_max_ms);
  const std::uint64_t ns = static_cast<std::uint64_t>(ms) * 1'000'000;
  report.backoff_ns += ns;
  obs::global_events().push(obs::EventType::kNetRetry, attempt, ns);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Where one hop's artifact goes. The hop loop owns the conversation;
/// a sink stores what arrives and decides whether a refused RESUME may
/// restart the hop.
class HopSink {
 public:
  /// What a RESUME continues: the hop, the target the first GET_DELTA
  /// named (the server re-derives the same route from it, so
  /// DELTA_BEGIN.last_hop stays truthful), and the artifact's identity.
  struct Transfer {
    ReleaseId from = 0;
    ReleaseId to = 0;
    ReleaseId target = 0;
    std::uint32_t artifact_crc = 0;
    std::uint64_t total_size = 0;
  };

  virtual ~HopSink() = default;
  /// The transfer under way, if any: the next attempt RESUMEs it at
  /// offset() rather than sending GET_DELTA.
  virtual std::optional<Transfer> transfer() const = 0;
  /// Start the transfer a GET_DELTA for `target` was answered with.
  virtual void begin(const DeltaBeginMsg& begin, ReleaseId target) = 0;
  /// Artifact bytes held so far.
  virtual std::uint64_t offset() const = 0;
  /// Take the next artifact bytes; throws Error on a bad artifact.
  virtual void feed(ByteView data) = 0;
  /// The whole artifact arrived: check it and put the version in place.
  virtual void finish() = 0;
  /// A RESUME was refused: return true after dropping the transfer so
  /// the hop restarts from GET_DELTA, or false when bytes already
  /// applied make that impossible.
  virtual bool restart() = 0;
};

namespace {

/// update_streaming: the in-place image in RAM.
class ImageSink final : public HopSink {
 public:
  explicit ImageSink(Bytes& image) : image_(image) {}

  std::optional<Transfer> transfer() const override { return transfer_; }

  void begin(const DeltaBeginMsg& begin, ReleaseId target) override {
    transfer_ = Transfer{begin.from, begin.to, target, begin.artifact_crc,
                         begin.total_size};
    version_length_ = begin.version_length;
    if (begin.full_image) {
      image_.resize(static_cast<std::size_t>(
          std::max<std::uint64_t>(image_.size(), begin.version_length)));
    } else {
      image_.resize(static_cast<std::size_t>(
          std::max(begin.reference_length, begin.version_length)));
      applier_.emplace(MutByteView(image_));
    }
  }

  std::uint64_t offset() const override { return received_; }

  void feed(ByteView data) override {
    if (applier_) {
      applier_->feed(data);
    } else {
      // The applier bounds-checks internally; this raw copy must not
      // trust server-controlled sizes. total_size and version_length are
      // announced independently, so check the actual destination buffer.
      if (data.size() > image_.size() - received_) {
        throw Error("protocol violation: DELTA_DATA overruns the image "
                    "buffer");
      }
      std::copy(data.begin(), data.end(),
                image_.begin() + static_cast<std::ptrdiff_t>(received_));
    }
    received_ += data.size();
  }

  void finish() override {
    if (applier_) {
      if (!applier_->finished()) {
        throw Error("artifact complete on the wire but the delta stream "
                    "did not finish: truncated or corrupt container");
      }
    } else if (crc32c(ByteView(image_).first(static_cast<std::size_t>(
                   version_length_))) != transfer_->artifact_crc) {
      throw Error("full image failed its checksum after reassembly");
    }
    image_.resize(static_cast<std::size_t>(version_length_));
  }

  /// The image already absorbed part of the old artifact.
  bool restart() override { return false; }

 private:
  Bytes& image_;
  std::optional<Transfer> transfer_;
  std::uint64_t version_length_ = 0;
  std::optional<StreamingInplaceApplier> applier_;
  std::uint64_t received_ = 0;
};

/// update_device: the TransferJournal, applied to flash once complete.
class DownloadSink final : public HopSink {
 public:
  DownloadSink(TransferJournal& journal, ReleaseId target, FlashDevice& device,
               const JournalRegion& region, ServiceMetrics* metrics)
      : journal_(journal),
        target_(target),
        device_(device),
        region_(region),
        metrics_(metrics) {}

  std::optional<Transfer> transfer() const override {
    if (!journal_.active) return std::nullopt;
    return Transfer{journal_.from, journal_.hop_to, target_,
                    journal_.artifact_crc, journal_.total_size};
  }

  void begin(const DeltaBeginMsg& begin, ReleaseId) override {
    journal_.active = true;
    journal_.from = begin.from;
    journal_.hop_to = begin.to;
    journal_.full_image = begin.full_image != 0;
    journal_.total_size = begin.total_size;
    journal_.reference_length = begin.reference_length;
    journal_.version_length = begin.version_length;
    journal_.artifact_crc = begin.artifact_crc;
    // No reserve(total_size): it is a server-supplied u64, and one
    // hostile DELTA_BEGIN must not commit gigabytes up front. The buffer
    // grows only as CRC-verified chunks actually arrive.
    journal_.received.clear();
  }

  std::uint64_t offset() const override { return journal_.received.size(); }

  void feed(ByteView data) override {
    journal_.received.insert(journal_.received.end(), data.begin(),
                             data.end());
  }

  void finish() override {
    // Defense in depth: per-frame CRCs already vetted every chunk, but
    // the whole-artifact checksum is what the device trusts before it
    // starts destroying its only reference copy.
    if (crc32c(journal_.received) != journal_.artifact_crc) {
      throw Error("artifact failed its end-to-end checksum");
    }
    if (journal_.full_image) {
      // An image reaching into the apply journal would destroy it.
      // Idempotent: a torn write is simply redone on the next call.
      DeviceJournal::check_image_area(device_, region_,
                                      journal_.received.size(),
                                      "staged full image");
      device_.write(0, journal_.received);
    } else {
      verify_before_flash();
      // PowerFailure propagates with the journal intact; the next call
      // skips the download and the flash journal resumes the apply.
      // The transport was the link: no modelled channel time.
      apply_update_resumable(device_, journal_.received, ChannelModel{},
                             region_);
    }
    journal_ = TransferJournal{};
  }

  /// Nothing has been applied yet, so the journaled prefix is disposable.
  bool restart() override {
    journal_ = TransferJournal{};
    return true;
  }

 private:
  /// Last line of defense before the first flash write: the frame
  /// checksums only prove the bytes arrived intact, not that the delta
  /// is safe to apply without scratch space. A server bug (or a hostile
  /// server) must not be able to brick this device.
  void verify_before_flash() {
    const Verifier verifier(VerifyOptions{.require_in_place = true});
    const Report verdict = verifier.check(ByteView(journal_.received));
    if (metrics_ != nullptr && verdict.warning_count() > 0) {
      metrics_->verify_warns.fetch_add(verdict.warning_count(),
                                       std::memory_order_relaxed);
    }
    if (verdict.ok()) return;
    if (metrics_ != nullptr) {
      metrics_->verify_rejects.fetch_add(1, std::memory_order_relaxed);
    }
    std::string why = "unsafe delta refused before flash write";
    for (const Finding& f : verdict.findings) {
      if (f.severity == Severity::kError) {
        why += ": " + f.message;
        break;
      }
    }
    obs::global_events().push(obs::EventType::kJournalPoison, journal_.from,
                              journal_.hop_to, why);
    // The push above already mirrored the event into the flight
    // recorder; dump the whole buffer before the error escapes.
    dump_active_flight("verify reject before flash write");
    journal_ = TransferJournal{};  // the artifact is poison; never resume it
    throw Error(why);
  }

  TransferJournal& journal_;
  ReleaseId target_;
  FlashDevice& device_;
  const JournalRegion& region_;
  ServiceMetrics* metrics_;
};

/// update_device_streaming: the journaled flash updater.
class FlashSink final : public HopSink {
 public:
  /// `probe` carries reboot-recovery state when the apply journal holds
  /// an in-flight record for this hop.
  FlashSink(FlashDevice& device, const JournalRegion& region,
            const StreamUpdaterOptions& options,
            const std::optional<StreamApplyProbe>& probe)
      : device_(device), region_(region), options_(options) {
    if (probe) {
      // Reboot recovery: reconstruct the mid-hop state from the journal
      // alone — header, command position, checksum state, undo window.
      info_ = probe->info;
      updater_.emplace(device_, region_, info_, options_);
    }
  }

  std::optional<Transfer> transfer() const override {
    if (!updater_) return std::nullopt;
    return Transfer{info_.meta_from, info_.meta_hop, info_.meta_target,
                    info_.artifact_crc, info_.artifact_size};
  }

  void begin(const DeltaBeginMsg& begin, ReleaseId target) override {
    info_.artifact_crc = begin.artifact_crc;
    info_.artifact_size = begin.total_size;
    info_.full_image = begin.full_image != 0;
    info_.meta_from = begin.from;
    info_.meta_hop = begin.to;
    info_.meta_target = target;
    // The updater journals a write-ahead checkpoint before its first
    // flash write; from here on the hop survives power cuts.
    updater_.emplace(device_, region_, info_, options_);
  }

  std::uint64_t offset() const override { return updater_->next_offset(); }

  void feed(ByteView data) override { updater_->feed(data); }

  void finish() override {
    if (!updater_->finished()) {
      throw Error("artifact complete on the wire but the apply did not "
                  "finish: truncated or corrupt container");
    }
  }

  /// Flash already holds part of the old artifact; only the journal can
  /// finish this hop.
  bool restart() override { return false; }

 private:
  FlashDevice& device_;
  const JournalRegion& region_;
  const StreamUpdaterOptions& options_;
  StreamArtifactInfo info_;
  std::optional<StreamingDeviceUpdater> updater_;
};

}  // namespace

ReleaseId OtaClient::run_hop(ReleaseId current, ReleaseId target,
                             HopSink& sink, OtaReport& report) {
  // A sink restored from durable state may already hold the whole
  // artifact: a download completed before a power cut, or a flash apply
  // whose done record landed.
  std::optional<HopSink::Transfer> held = sink.transfer();
  bool complete = held && sink.offset() == held->total_size;
  for (std::size_t attempt = 0; !complete;) {
    // Each attempt is its own span (a child of the update trace) so the
    // merged timeline shows every reconnect, and the server's serve
    // spans parent onto the attempt that actually reached it.
    const obs::TraceContext attempt_ctx = obs::child_of(obs::current_trace());
    const obs::TraceScope attempt_scope(attempt_ctx);
    obs::WatchdogGuard watchdog("client hop", attempt_ctx,
                                options_.stall_deadline_ms * 1'000'000);
    Session session;
    try {
      obs::Span span(obs::Stage::kNetRequest);
      session = connect_session();
      FramedConnection& conn = *session.conn;
      if (session.traced && attempt_ctx.valid()) {
        conn.set_outbound_trace(attempt_ctx);
      }
      // The sink's offset *is* the resume point, so a reconnect
      // continues mid-command without re-applying anything.
      const std::optional<HopSink::Transfer> resumed = sink.transfer();
      if (!resumed) {
        conn.send(GetDeltaMsg{current, target});
      } else {
        ++report.resumes;
        conn.send(ResumeMsg{resumed->from, resumed->target, sink.offset(),
                            resumed->artifact_crc});
      }
      const auto begin = expect<DeltaBeginMsg>(conn, "DELTA_BEGIN");
      if (!resumed) {
        if (begin.from != current || begin.start_offset != 0 ||
            begin.to <= current) {
          throw Error("protocol violation: DELTA_BEGIN does not match the "
                      "request");
        }
        sink.begin(begin, target);
      } else if (begin.artifact_crc != resumed->artifact_crc ||
                 begin.start_offset != sink.offset()) {
        // The server refused or mangled the resume.
        throw Error("resume mismatch: server offered a different artifact "
                    "or offset");
      }
      held = sink.transfer();

      while (!complete) {
        Message message = expect_message(conn);
        if (auto* data = std::get_if<DeltaDataMsg>(&message)) {
          const std::uint64_t offset = sink.offset();
          if (data->offset != offset) {
            throw Error("protocol violation: DELTA_DATA at offset " +
                        std::to_string(data->offset) + ", expected " +
                        std::to_string(offset));
          }
          if (data->data.size() > held->total_size - offset) {
            throw Error("protocol violation: DELTA_DATA overruns the "
                        "announced artifact size");
          }
          try {
            sink.feed(data->data);
          } catch (const FlashDevice::PowerFailure&) {
            throw;  // the simulated crash — the journal resumes the hop
          } catch (const Error& e) {
            // Frame CRCs passed, so these bytes are what the server
            // sent: the artifact itself is bad (or violates the device's
            // safety gates). Retrying cannot help.
            throw Error(std::string("artifact rejected mid-stream: ") +
                        e.what());
          }
          report.artifact_bytes += data->data.size();
          span.add_bytes(data->data.size());
          watchdog.progress(sink.offset());
        } else if (auto* end = std::get_if<DeltaEndMsg>(&message)) {
          if (end->total_size != sink.offset() ||
              end->artifact_crc != held->artifact_crc) {
            throw TransportError(NetErrc::kTruncated,
                                 "artifact ended early (" +
                                     std::to_string(sink.offset()) + " of " +
                                     std::to_string(end->total_size) +
                                     " bytes)");
          }
          complete = true;
        } else {
          throw Error("protocol violation: unexpected frame inside a "
                      "transfer");
        }
      }
    } catch (const TransportError&) {
      // fall through to retry; the sink's offset is the resume point
    } catch (const FormatError&) {
      // corrupt frame (e.g. injected bit flip): the frame CRC rejected
      // it before any byte reached the sink; reconnect and resume
    } catch (const BadResumeError&) {
      // The artifact changed between attempts and the server advises
      // restarting from GET_DELTA — possible only before anything of it
      // was applied. Leave evidence before escaping.
      if (!sink.restart()) {
        dump_active_flight("fatal bad resume: hop partly applied");
        throw;
      }
      if (obs::FlightRecorder* fr = obs::active_flight_recorder()) {
        fr->note("bad resume: transfer discarded, re-requesting");
      }
    }
    if (session.conn != nullptr) {
      report.bytes_received += session.conn->bytes_received();
    }
    if (complete) {
      break;
    }
    ++attempt;
    if (attempt >= options_.max_attempts) {
      dump_active_flight("transfer abort: attempts exhausted");
      throw Error("update failed after " + std::to_string(attempt) +
                  " attempts (hop " + std::to_string(current) + " -> " +
                  std::to_string(target) + ")");
    }
    backoff(attempt, report);
  }
  const ReleaseId hop = held->to;
  sink.finish();
  return hop;
}

OtaReport OtaClient::update_streaming(Bytes& image, ReleaseId current,
                                      ReleaseId target) {
  const obs::TraceContext trace = mint_update_trace();
  const obs::TraceScope scope(trace);
  obs::FlightRecorder flight("ota:stream " + std::to_string(current) + "->" +
                                 std::to_string(target),
                             trace);
  const obs::FlightScope flight_scope(flight);
  OtaReport report;
  while (current < target) {
    ImageSink sink(image);
    current = run_hop(current, target, sink, report);
    ++report.hops;
  }
  report.final_release = current;
  return report;
}

OtaReport OtaClient::update_device(FlashDevice& device,
                                   const JournalRegion& journal,
                                   ReleaseId current, ReleaseId target,
                                   TransferJournal* transfer) {
  const obs::TraceContext trace = mint_update_trace();
  const obs::TraceScope scope(trace);
  obs::FlightRecorder flight("ota:staged " + std::to_string(current) + "->" +
                                 std::to_string(target),
                             trace);
  const obs::FlightScope flight_scope(flight);
  OtaReport report;
  TransferJournal local;
  TransferJournal& tj = transfer != nullptr ? *transfer : local;
  if (tj.active) {
    if (tj.from >= current && tj.from < target) {
      // The journal belongs to a later hop of this same upgrade — the
      // caller's `current` went stale (e.g. a crash landed between the
      // apply finishing and the caller recording the new release). The
      // downloaded prefix is still consistent with the device, so trust
      // the journal forward instead of throwing away its bytes — or,
      // worse, re-requesting a hop the flash journal may be mid-apply
      // on, whose delta would then shred the half-written image.
      current = tj.from;
    } else {
      tj = TransferJournal{};  // journal from another lifetime — discard
    }
  }
  while (current < target) {
    DownloadSink sink(tj, target, device, journal, metrics_);
    current = run_hop(current, target, sink, report);
    ++report.hops;
  }
  report.final_release = current;
  return report;
}

OtaReport OtaClient::update_device_streaming(
    FlashDevice& device, const JournalRegion& journal, ReleaseId current,
    ReleaseId target, const StreamUpdaterOptions& apply_options) {
  const obs::TraceContext trace = mint_update_trace();
  const obs::TraceScope scope(trace);
  obs::FlightRecorder flight("ota:device-stream " + std::to_string(current) +
                                 "->" + std::to_string(target),
                             trace);
  const obs::FlightScope flight_scope(flight);
  OtaReport report;
  for (;;) {
    // The apply journal is the device's durable memory of this upgrade:
    // a done record fast-forwards a `current` that went stale when the
    // crash landed between the apply and the acknowledgement; an
    // in-flight record forces that hop to finish regardless of what the
    // caller believes the device runs.
    std::optional<StreamApplyProbe> probe =
        StreamingDeviceUpdater::probe(device, journal, apply_options);
    if (probe && probe->done) {
      current = std::max(current, probe->info.meta_hop);
      probe.reset();
    }
    if (!probe && current >= target) {
      break;
    }
    FlashSink sink(device, journal, apply_options, probe);
    current = run_hop(current, target, sink, report);
    ++report.hops;
  }
  report.final_release = current;
  return report;
}

std::string OtaClient::fetch_stats() {
  Session session = connect_session();
  session.conn->send(StatsReqMsg{});
  return expect<StatsMsg>(*session.conn, "STATS").text;
}

}  // namespace ipd
