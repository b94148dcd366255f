// OtaClient: the device side of the wire protocol — stream an upgrade
// over an unreliable link and survive everything the link does to you.
//
// Three entry points, one per place the new version is built:
//
//  * update_streaming() — DELTA_DATA chunks feed a StreamingInplaceApplier
//    over a RAM image as they arrive, so peak RAM is one command plus
//    parser state (the paper's §1 constrained-device budget).
//  * update_device() — each hop's artifact is first downloaded into a
//    TransferJournal (resumable across connection faults AND client
//    restarts: hand the same journal to a fresh client and it picks up
//    at the journaled offset), then verified and applied to the
//    FlashDevice through device/resumable_updater, whose on-flash
//    journal makes the apply itself power-failure tolerant.
//  * update_device_streaming() — chunks feed a StreamingDeviceUpdater
//    straight to flash; its apply journal is the device's only durable
//    state and survives power cuts mid-hop.
//
// All three run one hop loop. It connects with capped exponential
// backoff, sends GET_DELTA (or RESUME at exactly the byte the sink holds,
// so nothing is re-transferred or re-applied), checks every
// DELTA_BEGIN/DATA/END against the transfer, and retries transport and
// frame faults. The bytes go to a sink: the RAM image, the download
// journal, or the flash updater. A sink decides one policy: whether a
// refused RESUME may restart the hop from GET_DELTA. Only the download
// can, since nothing has been applied yet; the two in-place sinks fail.
// A simulated PowerFailure always propagates; call the same entry point
// again with the same arguments to resume.
//
// Upgrades go hop by hop: the server streams one artifact per request
// (the first step of its chosen route), the client applies it and asks
// again from its new release until it runs the target.
#pragma once

#include <functional>
#include <memory>

#include "device/resumable_updater.hpp"
#include "device/stream_updater.hpp"
#include "net/transport.hpp"
#include "server/metrics.hpp"

namespace ipd {

struct OtaClientOptions {
  /// Connection attempts per hop before giving up (first try included).
  std::size_t max_attempts = 8;
  /// Exponential backoff between attempts: initial * 2^k, capped.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 250;
  /// Largest DELTA_DATA payload requested in HELLO.
  std::uint32_t max_chunk = 64u << 10;
  /// Receive timeout per read; 0 = wait forever.
  int read_timeout_ms = 10'000;
  /// Register each transfer attempt with the global stall watchdog
  /// under this deadline (obs/watchdog.hpp); 0 = off.
  std::uint64_t stall_deadline_ms = 0;
};

/// What one update cost, for reports and assertions.
struct OtaReport {
  ReleaseId final_release = 0;
  std::size_t hops = 0;          ///< artifacts applied
  std::size_t retries = 0;       ///< reconnects forced by faults
  std::size_t resumes = 0;       ///< RESUME requests issued
  std::uint64_t bytes_received = 0;   ///< wire bytes read (all attempts)
  std::uint64_t artifact_bytes = 0;   ///< artifact bytes fed to sinks
  std::uint64_t backoff_ns = 0;  ///< total time spent sleeping in backoff
};

/// Download-side journal for update_device(): persists the hop metadata
/// and the artifact prefix received so far. Owned by the caller — on a
/// real device this lives in NVRAM next to the apply journal — so a
/// client killed mid-transfer resumes from the journaled offset after
/// "reboot" (a fresh OtaClient handed the same journal).
struct TransferJournal {
  bool active = false;
  ReleaseId from = 0;
  ReleaseId hop_to = 0;
  bool full_image = false;
  std::uint64_t total_size = 0;
  std::uint64_t reference_length = 0;
  std::uint64_t version_length = 0;
  std::uint32_t artifact_crc = 0;
  Bytes received;  ///< artifact prefix; received.size() is the offset
};

/// Where one hop's artifact goes (ota_client.cpp): the RAM image, the
/// download journal, or the flash updater.
class HopSink;

class OtaClient {
 public:
  /// Fresh connection to the server; called once per attempt, so wrap
  /// the result in FaultyTransport here to test fault recovery.
  using TransportFactory = std::function<std::unique_ptr<Transport>()>;

  /// `metrics` (optional) receives net_retries increments so an
  /// in-process fleet shows up in the server's snapshot; pass the
  /// serving ServiceMetrics or your own block.
  explicit OtaClient(TransportFactory factory,
                     const OtaClientOptions& options = {},
                     ServiceMetrics* metrics = nullptr);

  /// Upgrade `image` (holding release `current`'s bytes) to `target`
  /// in place, streaming each hop through StreamingInplaceApplier.
  /// Throws Error when out of attempts or on a non-retryable failure;
  /// the image may then hold a partially-applied hop (the reason
  /// devices that cannot re-download pair this with update_device()).
  OtaReport update_streaming(Bytes& image, ReleaseId current,
                             ReleaseId target);

  /// Upgrade a FlashDevice holding release `current` to `target`:
  /// download each hop into `transfer` (resumable), then apply with the
  /// journaled updater (`journal` is the on-flash journal region).
  /// FlashDevice::PowerFailure propagates — call again to resume.
  /// `transfer` may be null for a throwaway in-call journal.
  OtaReport update_device(FlashDevice& device, const JournalRegion& journal,
                          ReleaseId current, ReleaseId target,
                          const ChannelModel& channel,
                          TransferJournal* transfer = nullptr);

  /// Upgrade a FlashDevice by streaming each hop's artifact straight to
  /// flash through StreamingDeviceUpdater — peak RAM is one copy window
  /// plus one journal slot, not the artifact. The on-flash apply journal
  /// is the device's only durable state: after a power cut (a propagated
  /// FlashDevice::PowerFailure) call again with the same arguments — the
  /// journal fast-forwards a completed-but-unacknowledged hop, or
  /// resumes a half-applied one with a byte-exact network RESUME at the
  /// last durable checkpoint. `current` may be stale after a reboot; the
  /// journal's hop metadata wins.
  OtaReport update_device_streaming(
      FlashDevice& device, const JournalRegion& journal, ReleaseId current,
      ReleaseId target, const StreamUpdaterOptions& apply_options = {});

  /// One-shot METRICS_REQ round trip: the server's snapshot text.
  std::string fetch_metrics();

  /// One-shot STATS_REQ round trip: the server's Prometheus-style stats
  /// exposition (`ipdelta stats <host:port>`).
  std::string fetch_stats();

 private:
  struct Session {
    std::unique_ptr<Transport> transport;
    std::unique_ptr<FramedConnection> conn;
    bool traced = false;  ///< negotiated kProtocolVersionTraced
  };

  /// Connect + HELLO. Offers kProtocolVersionTraced first; an old server
  /// answers ERROR{kProtocol}, which downgrades this client to v1 and
  /// reconnects — so tracing degrades gracefully against old peers.
  Session connect_session();
  void backoff(std::size_t attempt, OtaReport& report);
  /// Transfer one hop from `current` toward `target` into `sink`,
  /// resuming across faults, then finish it; returns the release the
  /// sink holds afterwards.
  ReleaseId run_hop(ReleaseId current, ReleaseId target, HopSink& sink,
                    OtaReport& report);

  TransportFactory factory_;
  OtaClientOptions options_;
  ServiceMetrics* metrics_;
  /// HELLO version to offer next; drops to kProtocolVersion after an
  /// old server refuses kProtocolVersionTraced (sticky per client).
  std::uint32_t offer_version_ = kProtocolVersionTraced;
};

}  // namespace ipd
