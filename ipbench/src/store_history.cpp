// store_history: an ArtifactStore in a fresh directory on local disk,
// with sync_writes on (every segment and manifest append is fsynced, in
// publish order), cache_budget 0 (the reconstructed-version disk cache
// is off) and the default chain policy. Each cycle publishes 48 releases
// x 128 KiB in order (writes), then reconstructs every release twice in
// a seeded order with body() (reads), each compared with the published
// body. The only workload that touches `store`; writes run beside reads
// on the same layer, so a change that speeds one at the other's expense
// shows up.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>

#include "core/rng.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "store/artifact_store.hpp"
#include "verify/verifier.hpp"
#include "workloads.hpp"

namespace ipbench {

namespace {

constexpr std::size_t kReleases = 48;
constexpr ipd::length_t kReleaseBytes = 128 << 10;
constexpr std::size_t kEditsPerRelease = 12;
/// The seed picks release 0's bytes (16 KiB pieces alternating binary
/// and text, chunked_image; binary-only pieces doubled delta_ratio's
/// spread between seeds); the
/// per-release edit scripts come from this fixed seed, so every seed
/// carries the same churn. Drawn from the run's seed, a history's few
/// hundred power-law edits moved delta_ratio by 14% between seeds. The
/// churn is low enough that every folded 12-delta chain stays well under
/// the policy's 0.7 x body limit: at twice this churn some seeds stored
/// a fresh baseline instead, and delta_ratio jumped by a fifth.
constexpr std::uint64_t kEditScriptSeed = 0x5707E;
constexpr int kReconstructSweeps = 2;

std::vector<ipd::Bytes> make_history(std::uint64_t seed) {
  ipd::Rng edits(kEditScriptSeed);
  ipd::MutationModel model;
  model.length_scale = 48;
  std::vector<ipd::Bytes> history;
  history.push_back(
      chunked_image(seed, kReleaseBytes, 16 << 10,
                    {ipd::FileProfile::kBinary, ipd::FileProfile::kText}));
  for (std::size_t i = 1; i < kReleases; ++i) {
    history.push_back(
        ipd::mutate(history.back(), edits, kEditsPerRelease, model));
  }
  return history;
}

/// Exact counts of one cycle.
struct CycleCounts {
  double logical_bytes = 0;
  double segment_bytes = 0;
  double bytes_appended = 0;
  double folds = 0;
  double chain_hops = 0;
  double reconstructs = 0;
};

struct Cycle {
  double published_bytes = 0;
  std::vector<double> publish_s;      ///< per release id
  std::vector<double> reconstruct_s;  ///< per release id, fastest sweep
  std::vector<double> publish_ms;
  std::vector<double> reconstruct_ms;
  CycleCounts counts;
  double verified_bytes = 0;
};

Cycle run_cycle(const std::vector<ipd::Bytes>& history,
                const std::filesystem::path& dir, std::uint64_t order_seed,
                Results& results) {
  Cycle cycle;
  cycle.publish_s.assign(history.size(), 0.0);
  cycle.reconstruct_s.assign(history.size(), 0.0);
  std::filesystem::remove_all(dir);
  ipd::ArtifactStore::init(dir);
  {
    ipd::StoreOptions options;
    options.sync_writes = true;
    options.cache_budget = 0;
    ipd::ArtifactStore store(dir, options);

    for (std::size_t i = 0; i < history.size(); ++i) {
      const OpScope op("publish");
      ipd::ReleaseId id = 0;
      const double s = time_s([&] {
        id = traced("store.publish", [&] { return store.publish(history[i]); });
      });
      cycle.publish_s[i] = s;
      cycle.publish_ms.push_back(s * 1e3);
      cycle.published_bytes += static_cast<double>(history[i].size());
      results.check(id == i, "store_history: publish returned id " +
                                 std::to_string(id) + ", expected " +
                                 std::to_string(i));
    }

    for (int sweep = 0; sweep < kReconstructSweeps; ++sweep) {
      for (const std::size_t i : shuffled_indices(
               history.size(), ipd::derive_seed(order_seed, sweep))) {
        const OpScope op("reconstruct");
        std::shared_ptr<const ipd::Bytes> body;
        const double s = time_s([&] {
          body = traced("store.body", [&] {
            return store.body(static_cast<ipd::ReleaseId>(i));
          });
        });
        if (cycle.reconstruct_s[i] == 0.0 || s < cycle.reconstruct_s[i]) {
          cycle.reconstruct_s[i] = s;
        }
        cycle.reconstruct_ms.push_back(s * 1e3);
        results.check(body != nullptr && same_bytes(*body, history[i]),
                      "store_history: body(" + std::to_string(i) +
                          ") differs from the published release");
      }
    }

    const ipd::Verifier verifier(ipd::VerifyOptions{.require_in_place = true});
    for (const ipd::StoredRelease& r : store.releases()) {
      if (r.kind != ipd::StoredKind::kDelta) continue;
      const ipd::Bytes artifact = store.stored_artifact(r.id);
      const OpScope op("verify");
      const ipd::Report report =
          traced("verify.check", [&] { return verifier.check(artifact); });
      results.check(report.ok() && report.in_place_safe,
                    "store_history: verifier rejected the stored delta of "
                    "release " + std::to_string(r.id));
      cycle.verified_bytes += static_cast<double>(artifact.size());
    }

    const ipd::StoreMetrics& m = store.metrics();
    CycleCounts& c = cycle.counts;
    c.logical_bytes = cycle.published_bytes;
    c.segment_bytes = static_cast<double>(store.segment_bytes());
    c.bytes_appended = static_cast<double>(m.bytes_appended.load());
    c.folds = static_cast<double>(m.folds.load());
    c.chain_hops = static_cast<double>(m.chain_hops_applied.load());
    c.reconstructs = static_cast<double>(m.reconstructs.load());
  }
  std::filesystem::remove_all(dir);
  return cycle;
}

}  // namespace

Results run_store_history(const RunOptions& options) {
  Results results;
  std::vector<ipd::Bytes> history;
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir) / "store_history";
  const double setup_s = timed_setup([&] {
    history = make_history(options.seed);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir.parent_path());
    ipd::ArtifactStore::init(dir);
    const ipd::ArtifactStore opened(dir);
    results.check(opened.release_count() == 0,
                  "store_history: a fresh store is not empty");
  });
  std::uint64_t cycle_no = 0;
  const auto next_cycle = [&] {
    return run_cycle(history, dir, ipd::derive_seed(options.seed, cycle_no++),
                     results);
  };
  (void)next_cycle();  // warm-up

  std::vector<Cycle> cycles;
  double verified_bytes = 0;
  const Measured measured = measure(options, [&](bool traced) {
    Cycle cycle = next_cycle();
    if (traced) {
      verified_bytes += cycle.verified_bytes;
    } else {
      cycles.push_back(std::move(cycle));
    }
  });
  std::filesystem::remove_all(dir);
  print_host(measured);

  BestOf publish_best, reconstruct_best;
  std::vector<double> publish_ms, reconstruct_ms;
  std::vector<std::vector<double>> cycle_reconstruct_ms;
  for (const Cycle& cy : cycles) {
    for (std::size_t i = 0; i < history.size(); ++i) {
      const auto bytes = static_cast<double>(history[i].size());
      publish_best.add(i, bytes, cy.publish_s[i]);
      reconstruct_best.add(i, bytes, cy.reconstruct_s[i]);
    }
    publish_ms.insert(publish_ms.end(), cy.publish_ms.begin(),
                      cy.publish_ms.end());
    reconstruct_ms.insert(reconstruct_ms.end(), cy.reconstruct_ms.begin(),
                          cy.reconstruct_ms.end());
    cycle_reconstruct_ms.push_back(cy.reconstruct_ms);
  }
  const CycleCounts& c = cycles.front().counts;
  const Tail reconstruct_tail = median_pass_tail(cycle_reconstruct_ms);
  results.e2e("setup_s", setup_s, "s");
  results.layer("build_mb_s", publish_best.mb_per_s(), "MB/s");
  results.e2e("delta_ratio", c.segment_bytes / c.logical_bytes, "ratio");
  results.e2e("apply_mb_s", reconstruct_best.mb_per_s(), "MB/s");
  results.e2e("update_ms_p50", median(reconstruct_ms), "ms");
  results.e2e("update_ms_tail", reconstruct_tail.value, "ms");
  std::printf("store_history: %zu releases x %.0f KiB, %zu untraced cycles; "
              "publish_ms_p50 %.3f; reconstruct_ms_tail is p%.1f of each "
              "cycle's %zu reconstructs (median over cycles); storage_ratio "
              "%.4f\n",
              history.size(), static_cast<double>(kReleaseBytes) / 1024,
              cycles.size(), median(publish_ms), reconstruct_tail.percentile,
              history.size() * kReconstructSweeps,
              c.segment_bytes / c.logical_bytes);
  if (!options.trace) return results;

  std::vector<ipd::ByteView> buffers(history.begin(), history.end());
  core_probe(results, buffers);
  SpanSummary summary = summarize(Tracer::instance().spans());
  results.layer("verify.ms", summary.median_ms("verify.check"), "ms");
  results.layer(
      "verify.mb_s",
      mb_per_s(verified_bytes,
               static_cast<double>(summary.total_ns["verify.check"]) / 1e9),
      "MB/s");
  results.layer("store.publish_ms", summary.median_ms("store.publish"), "ms");
  results.layer("store.reconstruct_ms", summary.median_ms("store.body"), "ms");
  results.layer("store.chain_hops_per_reconstruct",
                c.reconstructs > 0 ? c.chain_hops / c.reconstructs : 0.0,
                "ratio");
  results.layer("store.bytes_appended", c.bytes_appended, "B");
  results.layer("store.folds", c.folds, "count");
  finish_traced_run(results, options, measured, summary);
  return results;
}

}  // namespace ipbench
