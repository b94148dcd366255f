// The delta distribution service core: answer "device at release i wants
// release j" for a whole fleet, concurrently.
//
// Request path (store -> cache -> singleflight -> pool -> metrics):
//
//   serve(i, j)
//     ├─ DeltaCache lookup on (i, j, pipeline fingerprint)   [sharded LRU]
//     ├─ miss: Singleflight — first thread in becomes the build leader,
//     │        concurrent requesters for the same key wait for free
//     ├─ leader: Pipeline::build_inplace(i, j) on the worker ThreadPool
//     │          (which also absorbs the build's own parallel fan-out,
//     │          so total build threads stay bounded), insert the cache
//     └─ response selection: the direct delta is served only while it is
//        a real win; a drifted history where delta(i, j) approaches the
//        full image falls back UpgradePlanner-style to the chain of
//        per-release hops i -> i+1 -> ... -> j (each hop an in-place
//        delta that every other straggler reuses) or to the full image,
//        whichever is byte-cheapest.
//
// Every response artifact is an *in-place* delta (or a raw image), so the
// requesting device needs no scratch space at any hop — the paper's §1
// scenario operated at fleet scale.
//
// Thread-safe throughout; serve() may be called from any number of
// threads. Artifacts are shared_ptr<const Bytes> handed out zero-copy.
#pragma once

#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "ipdelta.hpp"
#include "obs/trace_context.hpp"
#include "server/delta_cache.hpp"
#include "server/metrics.hpp"
#include "server/singleflight.hpp"
#include "server/version_store.hpp"
#include "verify/verifier.hpp"

namespace ipd {

struct ServiceOptions {
  /// How every delta this service builds is produced; part of the cache
  /// key, so two services with different pipelines never share entries.
  PipelineOptions pipeline;
  /// Total bytes of built deltas kept resident across all cache shards.
  std::uint64_t cache_budget = 64ull << 20;
  std::size_t cache_shards = 16;
  /// Build workers; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Serve the direct delta while
  ///     direct_size <= direct_gain_threshold * version_size;
  /// beyond that the delta stopped pulling its weight and the chain /
  /// full-image fallbacks are evaluated.
  double direct_gain_threshold = 0.5;
  /// Per-artifact fixed response overhead used when comparing routes
  /// (mirrors PlannerOptions::per_hop_overhead).
  std::uint64_t per_hop_overhead = 512;
  /// Longest per-release chain the fallback will consider building.
  std::size_t max_chain_hops = 8;
  /// Statically verify every delta artifact (src/verify/) before it is
  /// cached or served: no byte stream leaves this service that could
  /// brick an in-place applier. Builds that fail verification throw —
  /// a pipeline bug must be loud, not served.
  bool verify_artifacts = true;
};

/// One artifact of a response. `full_image` steps carry the raw release
/// body; the rest carry in-place deltas for apply_delta_inplace().
struct ServedStep {
  ReleaseId from = 0;
  ReleaseId to = 0;
  bool full_image = false;
  std::shared_ptr<const Bytes> bytes;
};

struct ServeResult {
  std::vector<ServedStep> steps;  ///< apply in order
  std::uint64_t total_bytes = 0;  ///< sum of step payloads
  bool cache_hit = false;   ///< no build ran anywhere in this response
  bool coalesced = false;   ///< waited behind another request's build
};

class DeltaService {
 public:
  /// `store` must outlive the service. Releases may keep being published
  /// while the service runs; a request only sees ids it asks for.
  explicit DeltaService(const VersionStore& store,
                        const ServiceOptions& options = {});

  /// Serve the upgrade `from` -> `to` (from < to). Blocks while a needed
  /// delta builds; concurrent identical requests coalesce onto one build.
  ServeResult serve(ReleaseId from, ReleaseId to);

  /// Completion of serve_async(). Exactly one of the arguments is set:
  /// `result` points at the response (valid only for the duration of the
  /// call — move out of it), or `error` carries what serve() threw.
  using ServeCallback =
      std::function<void(ServeResult* result, std::exception_ptr error)>;

  /// Non-blocking serve(): runs the request on the build ThreadPool and
  /// invokes `done` from a pool worker when the response is ready. The
  /// reactor front end (net/reactor.cpp) uses this so its event-loop
  /// thread never blocks behind a delta build. `trace` is installed as
  /// the worker's thread-local trace context for the whole request, so
  /// serve/build spans join the caller's trace exactly as they would on
  /// a blocking call. If the pool is shutting down, `done` is invoked
  /// inline with the rejection.
  void serve_async(ReleaseId from, ReleaseId to, obs::TraceContext trace,
                   ServeCallback done);

  /// Admit an externally built delta artifact for the hop `from` -> `to`
  /// (a publisher side-loading deltas it produced offline). This is a
  /// trust boundary: the artifact is statically verified — container,
  /// bounds, coverage, in-place safety — and its header endpoints must
  /// match the store's bodies (lengths and version CRC). Returns true
  /// when admitted into the cache; false (and counts verify_rejects)
  /// when refused. Throws ValidationError only for out-of-range ids.
  bool preload(ReleaseId from, ReleaseId to, Bytes delta);

  const ServiceMetrics& metrics() const noexcept { return metrics_; }
  /// The release history this service fronts (HELLO advertises its
  /// extent to wire clients).
  const VersionStore& store() const noexcept { return store_; }
  /// Mutable access for bench warm-up/measure phase boundaries (reset()).
  ServiceMetrics& metrics() noexcept { return metrics_; }
  const ServiceHistograms& histograms() const noexcept { return histograms_; }
  ServiceHistograms& histograms() noexcept { return histograms_; }
  const DeltaCache& cache() const noexcept { return cache_; }
  const ServiceOptions& options() const noexcept { return options_; }
  /// Resolved build-pool width (ServiceOptions::workers with 0 expanded
  /// to hardware concurrency). The reactor derives its default build
  /// admission limit from this.
  std::size_t build_workers() const noexcept { return pool_.worker_count(); }

  /// Metrics counters plus cache residency, ready to print.
  std::string metrics_text() const;

  /// Prometheus-style text exposition: every ServiceMetrics counter,
  /// every ServiceHistograms summary (p50/p90/p99), cache residency
  /// gauges, per-stage pipeline time and the event-ring depth. This is
  /// the payload behind the wire STATS message and `ipdelta stats`.
  std::string stats_text() const;

 private:
  std::shared_ptr<const Bytes> fetch_delta(ReleaseId from, ReleaseId to,
                                           bool* hit, bool* coalesced);
  /// Run the verifier over an artifact about to cross a trust boundary,
  /// maintaining the verify_* counters. `why` (optional) receives the
  /// first error finding on refusal.
  bool admit(ByteView artifact, std::string* why);

  const VersionStore& store_;
  ServiceOptions options_;
  std::uint64_t fingerprint_;
  ServiceMetrics metrics_;
  ServiceHistograms histograms_;
  Verifier verifier_;
  DeltaCache cache_;
  Singleflight<DeltaKey, std::shared_ptr<const Bytes>, DeltaKeyHash> flight_;
  ThreadPool pool_;
  /// Shares pool_: builds run ON the pool and their intra-build fan-out
  /// posts helper tasks to the same pool, so total build threads never
  /// exceed `workers` regardless of how many requests are in flight
  /// (see docs/SERVER.md). Declared after pool_ — construction order.
  Pipeline pipeline_;
};

/// Client-side helper: apply a served response to a buffer holding the
/// `from` release body and return the reconstructed `to` body. Used by
/// the demo, the CLI `serve` verifier, and the tests.
Bytes apply_served(const ServeResult& result, ByteView from_body);

}  // namespace ipd
