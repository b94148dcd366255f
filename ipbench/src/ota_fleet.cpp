// ota_fleet: 16 releases x 256 KiB served by DeltaService (in-memory
// VersionStore) behind the DeltaServer reactor on 127.0.0.1 (loopback,
// not a real link). Set-up pre-warms every (from, to) key, so the
// measured run does no builds. One client pulls updates back to back;
// each round takes all 120 (from < to) pairs in a seeded order, and each
// update streams into a fresh journaled FlashDevice holding `from`
// through OtaClient::update_device_streaming, then checks that flash
// equals `to`. Frames, CRC-32C, the reactor, cache hits and the
// streaming journaled flash apply make up the whole cost.
//
// One client, not a fleet of them: with two client threads and the
// reactor the workload kept about 1.6 of a 4-vCPU shared host's cores
// busy, and under load from other tenants its throughput and latencies
// spread 30-165% between seeds.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>

#include "core/rng.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/flash_device.hpp"
#include "device/resumable_updater.hpp"
#include "net/delta_server.hpp"
#include "net/ota_client.hpp"
#include "net/tcp_transport.hpp"
#include "server/delta_service.hpp"
#include "verify/verifier.hpp"
#include "workloads.hpp"

namespace ipbench {

namespace {

constexpr std::size_t kReleases = 16;
constexpr ipd::length_t kReleaseBytes = 256 << 10;
constexpr std::size_t kEditsPerRelease = 40;
/// The seed picks release 0's bytes (16 KiB pieces alternating binary
/// and text, chunked_image; binary-only pieces doubled delta_ratio's
/// spread between seeds); the
/// per-release edit scripts come from this fixed seed, so every seed
/// carries the same churn. Drawn from the run's seed, a history's few
/// hundred power-law edits moved delta_ratio by 14% between seeds.
constexpr std::uint64_t kEditScriptSeed = 0x07AF1EE7;
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kJournalBytes = 16 << 10;

struct Key {
  ipd::ReleaseId from = 0;
  ipd::ReleaseId to = 0;
};

/// A published history behind a running server. Members are destroyed
/// in reverse order: server, then service, then store.
struct Fleet {
  std::vector<ipd::Bytes> history;
  ipd::VersionStore store;
  std::unique_ptr<ipd::DeltaService> service;
  std::unique_ptr<ipd::DeltaServer> server;
  std::vector<Key> keys;
  /// Every artifact the pre-warm produced (kept for verification).
  std::vector<std::shared_ptr<const ipd::Bytes>> artifacts;
  std::vector<double> prewarm_s;  ///< per key, one cold serve() each
  std::size_t image_area = 0;
};

std::unique_ptr<Fleet> make_fleet(std::uint64_t seed, Results& results) {
  auto fleet = std::make_unique<Fleet>();
  ipd::Rng edits(kEditScriptSeed);
  ipd::MutationModel model;
  model.length_scale = 48;
  fleet->history.push_back(
      chunked_image(seed, kReleaseBytes, 16 << 10,
                    {ipd::FileProfile::kBinary, ipd::FileProfile::kText}));
  for (std::size_t i = 1; i < kReleases; ++i) {
    fleet->history.push_back(
        ipd::mutate(fleet->history.back(), edits, kEditsPerRelease, model));
  }
  std::size_t largest = 0;
  for (const ipd::Bytes& body : fleet->history) {
    fleet->store.publish(body);
    largest = std::max(largest, body.size());
  }
  fleet->image_area = (largest + kPageBytes - 1) / kPageBytes * kPageBytes;
  fleet->service = std::make_unique<ipd::DeltaService>(fleet->store);

  // Pre-warm every key, one cold serve() at a time; `to` bytes per
  // second of each cold serve give this workload's build_mb_s.
  for (ipd::ReleaseId from = 0; from < kReleases; ++from) {
    for (ipd::ReleaseId to = from + 1; to < kReleases; ++to) {
      fleet->keys.push_back({from, to});
      ipd::ServeResult served;
      fleet->prewarm_s.push_back(
          time_s([&] { served = fleet->service->serve(from, to); }));
      for (const ipd::ServedStep& step : served.steps) {
        if (!step.full_image) fleet->artifacts.push_back(step.bytes);
      }
    }
  }
  for (const Key& key : fleet->keys) {
    const ipd::ServeResult served = fleet->service->serve(key.from, key.to);
    results.check(same_bytes(ipd::apply_served(served,
                                               fleet->history[key.from]),
                             fleet->history[key.to]),
                  "ota_fleet: served response does not rebuild release " +
                      std::to_string(key.to));
  }
  fleet->server = std::make_unique<ipd::DeltaServer>(*fleet->service);
  fleet->server->start();
  return fleet;
}

/// Exact counts of one round (every key once).
struct RoundCounts {
  double version_bytes = 0;
  double wire_bytes = 0;
  double flash_bytes = 0;
  double flash_pages = 0;
  double ram_high_water = 0;
  double retries = 0;
  double updates = 0;
};

struct Round {
  RoundCounts counts;
  std::vector<double> update_s;  ///< per key, indexed like Fleet::keys
};

Round run_round(Fleet& fleet, Results& results, std::uint64_t order_seed) {
  Round round;
  round.update_s.assign(fleet.keys.size(), 0.0);
  const std::uint16_t port = fleet.server->port();
  ipd::OtaClient client([port]() -> std::unique_ptr<ipd::Transport> {
    return traced("net.connect", [&] {
      return ipd::TcpTransport::connect("127.0.0.1", port);
    });
  });
  const ipd::JournalRegion journal{fleet.image_area, kJournalBytes};
  for (const std::size_t k : shuffled_indices(fleet.keys.size(), order_seed)) {
    const Key key = fleet.keys[k];
    const ipd::Bytes& want = fleet.history[key.to];
    try {
      ipd::FlashDevice device(fleet.image_area + kJournalBytes, kPageBytes,
                              fleet.image_area + (64 << 10));
      device.load_image(fleet.history[key.from]);
      ipd::clear_journal(device, journal);
      device.reset_stats();
      const OpScope op("update");
      ipd::OtaReport report;
      round.update_s[k] = time_s([&] {
        report = traced("net.update_device_streaming", [&] {
          return client.update_device_streaming(device, journal, key.from,
                                                key.to);
        });
      });
      results.check(report.final_release == key.to &&
                        same_bytes(device.inspect().first(want.size()), want),
                    "ota_fleet: flash mismatch updating " +
                        std::to_string(key.from) + " -> " +
                        std::to_string(key.to));
      RoundCounts& rc = round.counts;
      rc.version_bytes += static_cast<double>(want.size());
      rc.wire_bytes += static_cast<double>(report.bytes_received);
      rc.flash_bytes += static_cast<double>(device.bytes_written());
      rc.flash_pages += static_cast<double>(device.pages_touched_write());
      rc.ram_high_water = std::max(
          rc.ram_high_water, static_cast<double>(device.ram().high_water()));
      rc.retries += static_cast<double>(report.retries);
      rc.updates += 1;
    } catch (const std::exception& e) {
      results.check(false,
                    std::string("ota_fleet: update failed: ") + e.what());
    }
  }
  return round;
}

}  // namespace

Results run_ota_fleet(const RunOptions& options) {
  Results results;
  std::unique_ptr<Fleet> fleet;
  BestOf prewarm_best;
  const double setup_s = timed_setup([&] {
    fleet.reset();  // stop the previous repetition's server first
    fleet = make_fleet(options.seed, results);
    for (std::size_t k = 0; k < fleet->keys.size(); ++k) {
      prewarm_best.add(
          k, static_cast<double>(fleet->history[fleet->keys[k].to].size()),
          fleet->prewarm_s[k]);
    }
  });
  std::uint64_t round_no = 0;
  const auto next_round = [&] {
    return run_round(*fleet, results, ipd::derive_seed(options.seed,
                                                       round_no++));
  };
  (void)next_round();  // warm-up: connections, allocator, page cache

  ipd::ServiceMetrics& metrics = fleet->service->metrics();
  ipd::ServiceHistograms& histograms = fleet->service->histograms();
  metrics.reset();
  histograms.reset();
  std::vector<Round> rounds;
  double traced_updates = 0, traced_retries = 0;
  const Measured measured = measure(options, [&](bool traced) {
    Round round = next_round();
    if (traced) {
      traced_updates += round.counts.updates;
      traced_retries += round.counts.retries;
    } else {
      rounds.push_back(std::move(round));
    }
  });
  print_host(measured);
  results.check(metrics.builds.load() == 0,
                "ota_fleet: the measured run built deltas");
  results.check(metrics.net_shed.load() == 0,
                "ota_fleet: the server shed load");

  BestOf update_best;
  double updates = 0;
  for (const Round& r : rounds) {
    for (std::size_t k = 0; k < fleet->keys.size(); ++k) {
      update_best.add(
          k, static_cast<double>(fleet->history[fleet->keys[k].to].size()),
          r.update_s[k]);
    }
    updates += r.counts.updates;
  }
  std::vector<double> key_ms;  // each key's fastest update
  for (const double s : update_best.seconds()) key_ms.push_back(s * 1e3);
  const RoundCounts& c = rounds.front().counts;
  const Tail update_tail = tail(key_ms);
  results.e2e("setup_s", setup_s, "s");
  results.layer("build_mb_s", prewarm_best.mb_per_s(), "MB/s");
  results.e2e("delta_ratio", c.wire_bytes / c.version_bytes, "ratio");
  results.e2e("apply_mb_s", update_best.mb_per_s(), "MB/s");
  results.e2e("update_ms_p50", median(key_ms), "ms");
  results.e2e("update_ms_tail", update_tail.value, "ms");
  std::printf("ota_fleet: %zu releases, %zu keys, %zu untraced rounds; "
              "updates_per_s %.1f; wire_bytes_per_update %.0f; "
              "flash_bytes_per_byte %.3f; update_ms_p50 and update_ms_tail "
              "(p%.1f) are over each key's fastest update\n",
              fleet->history.size(), fleet->keys.size(), rounds.size(),
              updates / measured.untraced_wall_s, c.wire_bytes / c.updates,
              c.flash_bytes / c.version_bytes, update_tail.percentile);
  if (!options.trace) return results;

  {
    const TracingOn tracing;
    const ipd::Verifier verifier(ipd::VerifyOptions{.require_in_place = true});
    for (const auto& artifact : fleet->artifacts) {
      const OpScope op("verify");
      const ipd::Report report =
          traced("verify.check", [&] { return verifier.check(*artifact); });
      results.check(report.ok() && report.in_place_safe,
                    "ota_fleet: verifier rejected a served artifact");
    }
  }
  double verified_bytes = 0;
  for (const auto& artifact : fleet->artifacts) {
    verified_bytes += static_cast<double>(artifact->size());
  }
  std::vector<ipd::ByteView> buffers(fleet->history.begin(),
                                     fleet->history.end());
  core_probe(results, buffers);
  SpanSummary summary = summarize(Tracer::instance().spans());
  const ipd::obs::HistogramSnapshot serve = histograms.serve_ns.snapshot();
  const ipd::obs::HistogramSnapshot transfer =
      histograms.transfer_ns.snapshot();
  const double all_updates = updates + traced_updates;
  results.layer("verify.ms", summary.median_ms("verify.check"), "ms");
  results.layer(
      "verify.mb_s",
      mb_per_s(verified_bytes,
               static_cast<double>(summary.total_ns["verify.check"]) / 1e9),
      "MB/s");
  results.layer("device.flash_bytes_written", c.flash_bytes / c.updates, "B");
  results.layer("device.flash_pages_written", c.flash_pages / c.updates,
                "count");
  results.layer("device.ram_high_water", c.ram_high_water, "B");
  results.layer("device.flash_bytes_per_byte",
                c.flash_bytes / c.version_bytes, "ratio");
  results.layer("server.serve_us_p50", serve.quantile(0.5) / 1e3, "us");
  results.layer("server.serve_us_p99", serve.quantile(0.99) / 1e3, "us");
  results.layer("server.cache_hit_rate", metrics.hit_rate(), "ratio");
  results.layer("server.builds", static_cast<double>(metrics.builds.load()),
                "count");
  results.layer("net.connect_ms", summary.median_ms("net.connect"), "ms");
  results.layer("net.transfer_ms_p50", transfer.quantile(0.5) / 1e6, "ms");
  results.layer("net.frames_per_update",
                static_cast<double>(metrics.net_frames_sent.load()) /
                    all_updates,
                "count");
  results.layer("net.retries", traced_retries, "count");
  results.layer("net.shed", static_cast<double>(metrics.net_shed.load()),
                "count");
  results.layer("net.wire_bytes_per_update", c.wire_bytes / c.updates, "B");
  finish_traced_run(results, options, measured, summary);
  return results;
}

}  // namespace ipbench
