// Fleet-scale OTA campaign simulator: the paper's §1 scenario run end to
// end, with everything this repo has built stacked together.
//
// run_campaign() publishes a seeded release history into a DeltaService,
// then drives a fleet of simulated FlashDevices — heterogeneous installed
// versions, every link optionally fault-injected (drops, truncations,
// bit flips via net/faulty_transport), and power cuts injected at
// arbitrary apply offsets — through the wire protocol to the newest
// release. Devices connect through DeltaServer::connect_local(): AF_UNIX
// socket pairs served by the same epoll reactor that serves TCP clients,
// so a 10k-device campaign runs in one process with no TCP port, on the
// production server path. Every device's faults, cuts and start release
// derive from the seed.
//
// Each device follows one of the two client stories:
//   * streaming (default): OtaClient::update_device_streaming — artifact
//     bytes go straight to flash through the journaled streaming updater;
//     a power cut reboots the device, which resumes from its apply
//     journal with a byte-exact network RESUME.
//   * staged (staged_fraction): OtaClient::update_device — download into
//     a TransferJournal, then the journaled staged apply.
//
// The rollout is staged by RolloutPolicy waves with an abort-on-failure-
// rate gate at every wave boundary. The report's headline number is
// `bricked`: devices left holding no recoverable version. The whole
// point of the apply journal is that this is zero no matter what the
// fault schedule does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/rollout.hpp"
#include "campaign/slo.hpp"
#include "core/types.hpp"
#include "device/stream_updater.hpp"
#include "net/ota_client.hpp"
#include "obs/histogram.hpp"

namespace ipd {

struct CampaignOptions {
  /// Fleet size and the seeded release history it upgrades across.
  std::size_t devices = 500;
  std::size_t releases = 4;  ///< devices start below, target = releases-1
  length_t image_bytes = 24u << 10;
  std::size_t edits_per_release = 25;
  std::uint64_t seed = 1;

  RolloutPolicy rollout;

  /// Link fault rates, applied to every connection (see FaultOptions).
  double drop_rate = 0;
  double truncate_rate = 0;
  double flip_rate = 0;
  std::size_t grace_ops = 4;

  /// Fraction of devices that suffer power cuts; an afflicted device is
  /// cut 1..max_power_cuts times, each at a uniformly random flash-write
  /// offset (so cuts land mid-journal-record and mid-copy, not just at
  /// command boundaries).
  double power_cut_rate = 0;
  std::size_t max_power_cuts = 3;

  /// Fraction of the fleet using the staged download-then-apply client
  /// path instead of streaming-to-flash.
  double staged_fraction = 0;

  /// On-flash journal region size per device.
  std::size_t journal_bytes = 16u << 10;

  /// Fleet SLO evaluated at every wave boundary (slo.hpp). Disabled by
  /// default; when enabled, a burn-rate or p99 breach aborts the rollout
  /// exactly like the flat failure-rate gate, and the breach reason is
  /// reported.
  SloSpec slo;

  StreamUpdaterOptions apply;
  /// Per-connection client knobs; backoff defaults here are tightened
  /// for simulation (1 ms initial, 8 ms cap) — a campaign is wall-clock
  /// bound by its slowest retrying device. The short read timeout is
  /// load-bearing under fault injection: a bit flip in a frame's length
  /// prefix (outside the payload CRC) stalls both peers mid-read, and
  /// the timeout is what turns that stall into a retryable
  /// TransportError (tearing down the connection also lets the server
  /// drop its half-read frame).
  OtaClientOptions client{/*max_attempts=*/8, /*backoff_initial_ms=*/1,
                          /*backoff_max_ms=*/8, /*max_chunk=*/4096,
                          /*read_timeout_ms=*/1000};
};

struct CampaignReport {
  // Fleet outcome. attempted = updated + failed; skipped counts devices
  // an abort left untouched (still safely on their old release).
  std::size_t devices = 0;
  std::size_t attempted = 0;
  std::size_t updated = 0;
  std::size_t failed = 0;
  /// Failed devices holding NO recoverable version: the image matches no
  /// published release and the journal has no record to resume from.
  /// The journal exists to keep this at zero.
  std::size_t bricked = 0;
  std::size_t skipped = 0;
  bool aborted = false;

  // Device-side effort totals across the fleet.
  std::size_t staged_devices = 0;
  std::size_t retries = 0;       ///< client reconnects after link faults
  std::size_t resumes = 0;       ///< byte-exact RESUME requests issued
  std::size_t reboots = 0;       ///< power-cut recoveries (cuts that fired)
  std::size_t restarts = 0;      ///< client restarts after hard errors
  std::size_t hops = 0;          ///< artifacts applied fleet-wide
  std::uint64_t link_faults = 0; ///< injected drops+truncations+flips
  std::uint64_t bytes_received = 0;

  double wall_seconds = 0;
  std::vector<std::size_t> waves;  ///< cumulative devices per wave run
  obs::HistogramSnapshot device_update_ns;  ///< per-device wall time

  // Per-wave health (counter deltas + latency histogram, one entry per
  // wave actually run) and the SLO verdict that stopped the rollout, if
  // one did. slo_aborted implies aborted.
  std::vector<WaveHealth> wave_health;
  bool slo_aborted = false;
  bool slo_evaluated = false; ///< at least one wave was judged
  double slo_burn_rate = 0;   ///< burn rate of the last judged wave
  std::string slo_reason;     ///< breach description, "" when healthy

  // Server-side load, copied from the serving DeltaService's metrics.
  std::uint64_t server_sessions = 0;
  std::uint64_t server_bytes_sent = 0;
  std::uint64_t server_resumes = 0;
  std::uint64_t server_rejected = 0;  ///< connections shed at the limit
  std::uint64_t server_builds = 0;
  std::uint64_t server_cache_hits = 0;

  /// Human-readable multi-line summary.
  std::string render() const;
  /// Single-line JSON object (the bench trend format).
  std::string json() const;
};

/// Run one campaign to completion (or abort). Deterministic for a fixed
/// options struct up to thread scheduling: every device's faults, cuts,
/// and start release derive from `seed`, and device outcomes do not
/// depend on each other. Throws ValidationError for nonsensical options.
CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace ipd
