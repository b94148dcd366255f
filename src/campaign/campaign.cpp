#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "core/rng.hpp"
#include "device/flash_journal.hpp"
#include "device/resumable_updater.hpp"
#include "device/stream_updater.hpp"
#include "net/delta_server.hpp"
#include "net/faulty_transport.hpp"

namespace ipd {
namespace {

std::vector<Bytes> make_history(const CampaignOptions& o) {
  Rng rng(o.seed);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, o.image_bytes, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 48;
  for (std::size_t i = 1; i < o.releases; ++i) {
    history.push_back(mutate(history.back(), rng, o.edits_per_release, model));
  }
  return history;
}

/// Everything the device workers share; counters are relaxed atomics
/// because they are statistics, not synchronization.
struct FleetState {
  const CampaignOptions& options;
  const std::vector<Bytes>& history;
  DeltaServer& server;
  ReleaseId target;
  std::size_t image_area;

  std::atomic<std::size_t> updated{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> bricked{0};
  std::atomic<std::size_t> staged_devices{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> resumes{0};
  std::atomic<std::size_t> reboots{0};
  std::atomic<std::size_t> restarts{0};
  std::atomic<std::size_t> hops{0};
  std::atomic<std::uint64_t> bytes_received{0};
  obs::Histogram device_ns;
  FaultStats fault_stats;
};

/// Does the image area hold some published release, byte for byte? An
/// in-place apply only guarantees the first version_length bytes, so
/// compare prefixes.
bool holds_some_release(const FlashDevice& device,
                        const std::vector<Bytes>& history) {
  const ByteView image = device.inspect();
  for (const Bytes& body : history) {
    if (body.size() <= image.size() &&
        std::equal(body.begin(), body.end(), image.begin())) {
      return true;
    }
  }
  return false;
}

/// Run one device to completion (or exhaustion). Returns true when the
/// device ends on the target release.
bool run_device(FleetState& fleet, std::size_t index) {
  const CampaignOptions& o = fleet.options;
  Rng rng(derive_seed(o.seed, index));
  const ReleaseId start =
      static_cast<ReleaseId>(rng.below(static_cast<std::uint64_t>(fleet.target)));
  const bool staged = rng.chance(o.staged_fraction);
  std::size_t cuts_left =
      rng.chance(o.power_cut_rate)
          ? static_cast<std::size_t>(
                rng.range(1, std::max<std::uint64_t>(o.max_power_cuts, 1)))
          : 0;

  FlashDevice device(fleet.image_area + o.journal_bytes, 512,
                     fleet.image_area + (64u << 10));
  device.load_image(fleet.history[start]);
  const JournalRegion journal{fleet.image_area, o.journal_bytes};
  clear_journal(device, journal);
  if (staged) fleet.staged_devices.fetch_add(1, std::memory_order_relaxed);

  // Uniform flash-write offset for a cut: an update writes roughly the
  // version body plus journal records, so a bound of twice the largest
  // body lands cuts everywhere from the first journal record to the
  // final CRC sweep (some never fire; those updates just complete).
  const std::uint64_t write_bound =
      2 * std::max<std::uint64_t>(fleet.history.back().size(), 4096);

  const bool faulty_links =
      o.drop_rate > 0 || o.truncate_rate > 0 || o.flip_rate > 0;
  TransferJournal transfer;  // staged path; lives across restarts
  std::uint64_t connection = 0;
  std::size_t restarts = 0;
  std::size_t reboots = 0;
  bool done = false;

  while (!done) {
    if (cuts_left > 0) {
      device.inject_power_failure_after(1 + rng.below(write_bound));
    }
    const auto factory = [&]() -> std::unique_ptr<Transport> {
      std::unique_ptr<Transport> client_end = fleet.server.connect_local();
      if (!faulty_links) return client_end;
      FaultOptions faults;
      faults.seed = derive_seed(derive_seed(o.seed, index), connection++);
      faults.drop_rate = o.drop_rate;
      faults.truncate_rate = o.truncate_rate;
      faults.flip_rate = o.flip_rate;
      faults.grace_ops = o.grace_ops;
      return std::make_unique<FaultyTransport>(std::move(client_end), faults,
                                               &fleet.fault_stats);
    };

    bool reboot = false;
    bool gave_up = false;
    try {
      OtaClient client(factory, o.client);
      // `start` is deliberately stale after the first reboot/restart:
      // the on-device journal is the truth and must win (the trust-
      // forward rule in OtaClient).
      const OtaReport r =
          staged ? client.update_device(device, journal, start, fleet.target,
                                        &transfer)
                 : client.update_device_streaming(device, journal, start,
                                                  fleet.target);
      fleet.retries.fetch_add(r.retries, std::memory_order_relaxed);
      fleet.resumes.fetch_add(r.resumes, std::memory_order_relaxed);
      fleet.hops.fetch_add(r.hops, std::memory_order_relaxed);
      fleet.bytes_received.fetch_add(r.bytes_received,
                                     std::memory_order_relaxed);
      done = true;
    } catch (const FlashDevice::PowerFailure&) {
      reboot = true;
    } catch (const Error&) {
      gave_up = ++restarts >= std::max<std::size_t>(
                                  o.rollout.max_attempts_per_device, 1);
    }

    if (reboot) {
      // "Reboot": disarm the simulator, drop all client-side RAM state
      // (a fresh OtaClient), and go around with the same stale `start`.
      device.clear_power_failure();
      --cuts_left;
      ++reboots;
      fleet.reboots.fetch_add(1, std::memory_order_relaxed);
      if (reboots > o.rollout.reboot_budget) break;
    } else if (gave_up) {
      break;
    }
  }
  device.clear_power_failure();
  fleet.restarts.fetch_add(restarts, std::memory_order_relaxed);

  const Bytes& want = fleet.history[fleet.target];
  const ByteView image = device.inspect();
  const bool updated =
      done && want.size() <= image.size() &&
      std::equal(want.begin(), want.end(), image.begin());
  if (updated) {
    fleet.updated.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  fleet.failed.fetch_add(1, std::memory_order_relaxed);
  // Brick check: a failed device is fine as long as it still holds SOME
  // release, or its journal can finish the interrupted apply next boot.
  // probe() asks what the device's own boot path asks, and both
  // updaters' journals share its layout.
  if (!holds_some_release(device, fleet.history)) {
    bool resumable = false;
    try {
      resumable = StreamingDeviceUpdater::probe(device, journal).has_value();
    } catch (const Error&) {
      // A region too small for two slots holds no record.
    }
    if (!resumable) fleet.bricked.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void run_wave(FleetState& fleet, std::size_t begin, std::size_t end,
              obs::Histogram& wave_latency) {
  std::atomic<std::size_t> next{begin};
  const std::size_t workers = std::min(
      std::max<std::size_t>(fleet.options.rollout.max_concurrency, 1),
      end - begin);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t index =
            next.fetch_add(1, std::memory_order_relaxed);
        if (index >= end) return;
        const auto t0 = std::chrono::steady_clock::now();
        run_device(fleet, index);
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        fleet.device_ns.record(ns);
        wave_latency.record(ns);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Fleet counters captured at a wave boundary; deltas feed WaveHealth.
struct FleetSnapshot {
  std::size_t updated, failed, bricked, retries, reboots;
  std::uint64_t link_faults;
};

FleetSnapshot snapshot_fleet(const FleetState& fleet) {
  return FleetSnapshot{fleet.updated.load(),  fleet.failed.load(),
                       fleet.bricked.load(),  fleet.retries.load(),
                       fleet.reboots.load(),  fleet.fault_stats.total()};
}

}  // namespace

std::string CampaignReport::render() const {
  std::ostringstream out;
  out << "campaign: " << devices << " devices";
  if (aborted) out << "  [ABORTED]";
  out << "\n  waves:";
  for (const std::size_t w : waves) out << ' ' << w;
  out << "\n  updated " << updated << "  failed " << failed << "  bricked "
      << bricked << "  skipped " << skipped;
  out << "\n  staged " << staged_devices << "  hops " << hops << "  retries "
      << retries << "  resumes " << resumes << "  reboots " << reboots
      << "  restarts " << restarts << "  link faults " << link_faults;
  out << "\n  received " << format_bytes(bytes_received) << "  wall "
      << wall_seconds << " s";
  out << "\n  device update " << device_update_ns.latency_line();
  for (const WaveHealth& w : wave_health) out << "\n  " << w.render();
  if (slo_aborted) {
    out << "\n  SLO BREACH: " << slo_reason;
  } else if (slo_evaluated) {
    out << "\n  slo: healthy, burn rate " << slo_burn_rate;
  }
  out << "\n  server: sessions " << server_sessions << "  sent "
      << format_bytes(server_bytes_sent) << "  resumes " << server_resumes
      << "  builds " << server_builds << "  cache hits " << server_cache_hits
      << "\n";
  return out.str();
}

std::string CampaignReport::json() const {
  std::ostringstream out;
  out << "{\"devices\":" << devices << ",\"attempted\":" << attempted
      << ",\"updated\":" << updated << ",\"failed\":" << failed
      << ",\"bricked\":" << bricked << ",\"skipped\":" << skipped
      << ",\"aborted\":" << (aborted ? "true" : "false")
      << ",\"staged_devices\":" << staged_devices << ",\"hops\":" << hops
      << ",\"retries\":" << retries << ",\"resumes\":" << resumes
      << ",\"reboots\":" << reboots << ",\"restarts\":" << restarts
      << ",\"link_faults\":" << link_faults
      << ",\"bytes_received\":" << bytes_received << ",\"wall_seconds\":"
      << wall_seconds << ",\"p50_device_update_ns\":"
      << static_cast<std::uint64_t>(device_update_ns.quantile(0.5))
      << ",\"p99_device_update_ns\":"
      << static_cast<std::uint64_t>(device_update_ns.quantile(0.99))
      << ",\"slo_aborted\":" << (slo_aborted ? "true" : "false")
      << ",\"slo_burn_rate\":" << slo_burn_rate << ",\"wave_health\":[";
  for (std::size_t i = 0; i < wave_health.size(); ++i) {
    if (i != 0) out << ',';
    out << wave_health[i].json();
  }
  out << "]"
      << ",\"server_sessions\":" << server_sessions
      << ",\"server_bytes_sent\":" << server_bytes_sent
      << ",\"server_resumes\":" << server_resumes
      << ",\"server_rejected\":" << server_rejected
      << ",\"server_builds\":" << server_builds
      << ",\"server_cache_hits\":" << server_cache_hits << "}";
  return out.str();
}

CampaignReport run_campaign(const CampaignOptions& options) {
  if (options.releases < 2) {
    throw ValidationError("campaign: need at least two releases to upgrade");
  }
  for (const double rate :
       {options.drop_rate, options.truncate_rate, options.flip_rate,
        options.power_cut_rate, options.staged_fraction}) {
    if (rate < 0 || rate > 1) {
      throw ValidationError("campaign: rates must lie in [0, 1]");
    }
  }
  if (options.slo.enabled) options.slo.validate();

  CampaignReport report;
  report.devices = options.devices;
  report.waves = plan_waves(options.devices, options.rollout.waves);
  if (options.devices == 0) return report;

  const std::vector<Bytes> history = make_history(options);
  VersionStore store;
  for (const Bytes& body : history) store.publish(body);
  DeltaService service(store, ServiceOptions{});
  // Sized from the fleet's own concurrency, so no limit can shed a
  // device and turn into a fake link fault. Each device worker holds one
  // connection at a time; the 2x covers a connection the device has
  // closed but the loop has not yet reaped when its reconnect arrives.
  // A connection carries at most one request (the protocol is
  // lockstep), so builds can never queue past the connection limit.
  ServerConfig net;
  net.max_connections = std::max(
      net.max_connections,
      2 * std::max<std::size_t>(options.rollout.max_concurrency, 1));
  net.max_pending_builds = net.max_connections;
  // Never start()ed: devices reach the reactor through connect_local()
  // socket pairs, so campaigns need no TCP port.
  DeltaServer server(service, net);

  std::size_t max_len = 0;
  for (const Bytes& body : history) max_len = std::max(max_len, body.size());
  FleetState fleet{options, history, server,
                   static_cast<ReleaseId>(options.releases - 1),
                   /*image_area=*/(max_len + 511) / 512 * 512 + 512};

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t done = 0;
  for (const std::size_t wave_end : report.waves) {
    const FleetSnapshot before = snapshot_fleet(fleet);
    obs::Histogram wave_latency;
    run_wave(fleet, done, wave_end, wave_latency);
    const FleetSnapshot after = snapshot_fleet(fleet);

    WaveHealth health;
    health.wave = report.wave_health.size() + 1;
    health.attempted = wave_end - done;
    health.updated = after.updated - before.updated;
    health.failed = after.failed - before.failed;
    health.bricked = after.bricked - before.bricked;
    health.retries = after.retries - before.retries;
    health.reboots = after.reboots - before.reboots;
    health.link_faults = after.link_faults - before.link_faults;
    health.latency = wave_latency.snapshot();
    report.wave_health.push_back(health);
    done = wave_end;

    const SloEval eval = evaluate_slo(options.slo, health);
    if (eval.evaluated) {
      report.slo_evaluated = true;
      report.slo_burn_rate = eval.burn_rate;
    }
    if (eval.breached) {
      report.aborted = true;
      report.slo_aborted = true;
      report.slo_reason = eval.reason;
      break;
    }

    const std::size_t failed = fleet.failed.load();
    if (failed >= options.rollout.min_failures_to_abort &&
        static_cast<double>(failed) >
            options.rollout.abort_failure_rate * static_cast<double>(done)) {
      report.aborted = true;
      break;
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  report.attempted = done;
  report.skipped = options.devices - done;
  report.updated = fleet.updated.load();
  report.failed = fleet.failed.load();
  report.bricked = fleet.bricked.load();
  report.staged_devices = fleet.staged_devices.load();
  report.retries = fleet.retries.load();
  report.resumes = fleet.resumes.load();
  report.reboots = fleet.reboots.load();
  report.restarts = fleet.restarts.load();
  report.hops = fleet.hops.load();
  report.link_faults = fleet.fault_stats.total();
  report.bytes_received = fleet.bytes_received.load();
  report.device_update_ns = fleet.device_ns.snapshot();

  const ServiceMetrics& metrics = service.metrics();
  report.server_sessions = metrics.net_sessions.load();
  report.server_bytes_sent = metrics.net_bytes_sent.load();
  report.server_resumes = metrics.net_resumes.load();
  report.server_rejected = metrics.net_rejected.load();
  report.server_builds = metrics.builds.load();
  report.server_cache_hits = metrics.cache_hits.load();
  return report;
}

}  // namespace ipd
